package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"shieldstore/internal/workload"
)

// workers is the number of worker goroutines (and connections) every
// workload uses: the benchmark host's two cores.
const workers = 2

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 3

// streamLen is the generated op-stream length; workers cycle through it.
const streamLen = 1 << 20

// spec describes one workload.
type spec struct {
	name    string
	mix     string // workload.Table2 name
	keys    int
	valSize int
	// batch is the keys per op: each op is one call into the program
	// (a Get or Set, or with batch > 1 an MGet or MSet of that many
	// consecutive stream keys, a Get or Set as the first one says).
	batch int
	// rate is the open-loop offered rate in ops/s for networked
	// workloads; 0 marks an in-process closed-loop workload.
	rate float64
	// start sets the workload up; with t non-nil it also sets up the
	// traced path (wrapped connections, timed engine) recording into t.
	start func(o options, sp spec, in *inputs, t *tracer) (system, error)
}

var specs = []spec{
	{name: "wire-rd95z", mix: "RD95_Z", keys: 10_000, valSize: 128, batch: 1, rate: 10_000, start: startWire},
	{name: "core-rd50u", mix: "RD50_U", keys: 200_000, valSize: 512, batch: 1, start: startCore},
	{name: "spill-rd95z", mix: "RD95_Z", keys: 50_000, valSize: 256, batch: 1, start: startSpill},
	// The cluster's single-key round trip is a chain of goroutine
	// handoffs over four nodes; its wall figures swung by a third with
	// the host's load from run to run. A batch amortises the handoffs
	// over work the program does.
	{name: "cluster-repl-rd50z", mix: "RD50_Z", keys: 20_000, valSize: 128, batch: 32, rate: 1_000, start: startCluster},
}

func lookup(name string) (spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// inputs are generated from the seed before anything is timed: the
// program only ever receives these bytes.
type inputs struct {
	keys [][]byte // by key id
	vals [][]byte // by key id: preloaded and written by every Set
	want [][]byte // by key id: what every Get must return
	ops  []workload.Op
	// batch is the keys per op; len(ops) is a multiple of it.
	batch int
}

func makeInputs(sp spec, n, stream int, seed int64) (*inputs, error) {
	mix, ok := workload.ByName(sp.mix)
	if !ok {
		return nil, fmt.Errorf("unknown mix %q", sp.mix)
	}
	stream -= stream % sp.batch
	in := &inputs{keys: make([][]byte, n), vals: make([][]byte, n), ops: make([]workload.Op, stream), batch: sp.batch}
	for id := range in.keys {
		in.keys[id] = workload.FormatKey(uint64(id))
		in.vals[id] = workload.MakeValue(sp.valSize, uint64(id))
	}
	// Values are a pure function of the key id, so every Set rewrites
	// the preloaded value and every Get has one right answer.
	in.want = in.vals
	gen := workload.NewGen(mix, uint64(n), seed)
	for i := range in.ops {
		in.ops[i] = gen.Next()
		if k := in.ops[i].Kind; k != workload.Read && k != workload.Update {
			return nil, fmt.Errorf("mix %s generated a %v op", sp.mix, k)
		}
	}
	return in, nil
}

// liveBytes is the user key+value bytes the store holds.
func (in *inputs) liveBytes() float64 {
	return float64(len(in.keys) * (len(in.keys[0]) + len(in.vals[0])))
}

// system is one set-up workload. exec runs one op, a Get or Set of the
// keys of ops, on worker w's connection (or goroutine) and stores in
// got[i] the value a Get read for ops[i].
type system interface {
	exec(w int, get bool, ops []workload.Op, got [][]byte) error
	// traced is exec over the traced path, recording op's spans.
	traced(w int, op int64, get bool, ops []workload.Op, got [][]byte) error
	counters() counters
	// check runs the after-run integrity checks.
	check() error
	// layers adds the per-layer metrics the system's public stats supply,
	// given snapshots taken before and after the measured phases and the
	// ops run between them. It may shut the traced path down first, to
	// read stats that are only safe to read then.
	layers(vals map[string]float64, c0, c1 counters, ops, gets, sets int)
	close()
}

// tally is what workers measured in one window or phase.
type tally struct {
	ops           int
	failed, wrong int
	firstErr      error
	get, set      []int64 // per-op latency, ns
	late          []int64 // open loop: how late the op was sent, ns
	// A closed-loop window also holds the process CPU time spent in it
	// and the share of the VM's CPU time the hypervisor stole meanwhile.
	cpu   time.Duration
	steal float64
}

func (t *tally) merge(o *tally) {
	t.ops += o.ops
	t.cpu += o.cpu
	t.failed += o.failed
	t.wrong += o.wrong
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	t.get = append(t.get, o.get...)
	t.set = append(t.set, o.set...)
	t.late = append(t.late, o.late...)
}

// record checks one op's outcome and stores its latency.
func (t *tally) record(in *inputs, ops []workload.Op, got [][]byte, err error, ns int64) {
	t.ops++
	get := ops[0].Kind == workload.Read
	if err != nil {
		t.failed++
		err = fmt.Errorf("key %d: %w", ops[0].Key, err)
	} else if get {
		for i, op := range ops {
			if !bytes.Equal(got[i], in.want[op.Key]) {
				t.wrong++
				err = fmt.Errorf("key %d: Get returned a wrong value", op.Key)
				break
			}
		}
	}
	if err != nil {
		// A failed op misses every latency limit.
		ns = math.MaxInt64
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
	if get {
		t.get = append(t.get, ns)
	} else {
		t.set = append(t.set, ns)
	}
}

// opFunc runs one op, over the keys of ops, for worker w; it stores in
// got[i] the value a Get read for ops[i].
type opFunc func(w int, ops []workload.Op, got [][]byte) error

// plainOps runs ops untraced.
func plainOps(sys system) opFunc {
	return func(w int, ops []workload.Op, got [][]byte) error {
		return sys.exec(w, ops[0].Kind == workload.Read, ops, got)
	}
}

// tracedOps runs ops with spans recorded into t.
func tracedOps(sys system, t *tracer) opFunc {
	return func(w int, ops []workload.Op, got [][]byte) error {
		id := t.begin(w)
		get := ops[0].Kind == workload.Read
		s := t.now()
		err := sys.traced(w, id, get, ops, got)
		t.root(w, id, get, s, t.now())
		return err
	}
}

// cursor is each worker's position in the op stream; worker w starts at
// w/workers of the way through and cycles.
type cursor []int

func newCursor(in *inputs) cursor {
	c := make(cursor, workers)
	for w := range c {
		c[w] = w * len(in.ops) / workers / in.batch * in.batch
	}
	return c
}

// next returns worker w's next op: the stream entries it covers.
func (c cursor) next(in *inputs, w int) []workload.Op {
	ops := in.ops[c[w] : c[w]+in.batch]
	c[w] = (c[w] + in.batch) % len(in.ops)
	return ops
}

// closedLoop runs every worker back to back for d: each sends its next
// op only when the previous one returned. The run is cut into windows of
// equal length and each op is tallied in the window it finished in; a
// sampler reads the process CPU time and the VM's steal at every window
// boundary.
func closedLoop(in *inputs, cur cursor, d time.Duration, windows int, do opFunc) ([]tally, time.Duration) {
	tallies := make([][]tally, workers)
	wlen := d / time.Duration(windows)
	start := time.Now()
	end := start.Add(d)
	out := make([]tally, windows)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cpu, st := cpuTime(), readSteal()
		for k := range out {
			time.Sleep(time.Until(start.Add(time.Duration(k+1) * wlen)))
			c, s := cpuTime(), readSteal()
			out[k].cpu, out[k].steal = c-cpu, s.since(st)
			cpu, st = c, s
		}
	}()
	for w := 0; w < workers; w++ {
		tallies[w] = make([]tally, windows)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([][]byte, in.batch)
			for {
				ops := cur.next(in, w)
				t0 := time.Now()
				err := do(w, ops, got)
				t1 := time.Now()
				k := min(windows-1, int(t1.Sub(start)/wlen))
				tallies[w][k].record(in, ops, got, err, int64(t1.Sub(t0)))
				if !t1.Before(end) {
					return
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	for w := range tallies {
		for k := range out {
			out[k].merge(&tallies[w][k])
		}
	}
	return out, wall
}

// sum merges windows into one tally.
func sum(windows []tally) tally {
	var all tally
	for k := range windows {
		all.merge(&windows[k])
	}
	return all
}

// openLoop sends ops on a fixed schedule at rate ops/s for d, op i due
// at start+i/rate on worker i%workers. Latency runs from the due time,
// so a stall also charges the ops queued behind it. Lateness is recorded
// for ops whose worker was idle at their due time: how late the
// generator itself woke.
func openLoop(in *inputs, cur cursor, rate float64, d time.Duration, do opFunc) (tally, error) {
	tallies := make([]tally, workers)
	timers := make([]*timer, workers)
	for w := range timers {
		tm, err := newTimer()
		if err != nil {
			return tally{}, err
		}
		defer tm.close()
		timers[w] = tm
	}
	period := float64(time.Second) / rate
	total := int(d.Seconds() * rate)
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &tallies[w]
			got := make([][]byte, in.batch)
			for i := w; i < total; i += workers {
				due := start.Add(time.Duration(float64(i) * period))
				idle := time.Now().Before(due)
				if idle {
					if err := timers[w].sleep(time.Until(due)); err != nil {
						t.firstErr = fmt.Errorf("open-loop timer: %w", err)
						return
					}
				}
				sent := time.Now()
				if idle {
					t.late = append(t.late, int64(sent.Sub(due)))
				}
				ops := cur.next(in, w)
				err := do(w, ops, got)
				t.record(in, ops, got, err, int64(time.Since(due)))
			}
		}()
	}
	wg.Wait()
	return sum(tallies), nil
}

// pct returns the q-quantile (nearest rank) of xs, sorting xs, and
// whether at least ten samples lie beyond it.
func pct(xs []int64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	slices.Sort(xs)
	i := max(0, int(math.Ceil(q*float64(n)))-1)
	return float64(xs[i]), n-1-i >= 10
}

// putPct stores xs's q-quantile in microseconds under name when at
// least ten samples lie beyond it.
func putPct(vals map[string]float64, name string, xs []int64, q float64) {
	if v, ok := pct(xs, q); ok && v != math.MaxInt64 {
		vals[name] = v / 1e3
	}
}

// putWindowPct stores under name the median over windows of each
// window's steal-adjusted q-quantile in microseconds, counting only
// windows with at least ten samples beyond it; it stores nothing unless
// most windows count. pick selects a window's samples. A window whose
// share s of the VM's CPU time the hypervisor stole ran its ops on
// vCPUs that were there only 1-s of the time, which stretches their
// wall time by about 1/(1-s), so the quantile is scaled by 1-s: on a
// host that steals nothing it is the latency as measured. (On a 2-vCPU
// Xeon VM, over runs at 1-19% steal, this cut the spread of the
// cluster's p50s between runs from 0.10-0.12 of the median to
// 0.03-0.05 and left wire-rd95z's at 0.03.)
func putWindowPct(vals map[string]float64, name string, windows []tally, pick func(*tally) []int64, q float64) {
	var per []float64
	for k := range windows {
		if v, ok := pct(pick(&windows[k]), q); ok && v != math.MaxInt64 {
			per = append(per, v/1e3*(1-windows[k].steal))
		}
	}
	if 2*len(per) > len(windows) {
		vals[name] = median(per)
	}
}

// median of xs (sorted in place).
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
