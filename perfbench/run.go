package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// counters is a snapshot of a system's public stats. Per-run figures
// are differences of two snapshots.
type counters struct {
	vsec                float64 // busiest partition's (or shard's) virtual seconds
	untrusted, encl     int64   // simulated region bytes
	decrypts, ocalls    uint64
	hotcalls            uint64
	epcFaults           uint64
	spills, faults      uint64 // value log
	gcCopies            uint64
	segments            uint64
	disk                int64 // value-log directory bytes
	vlatP50, vlatP99    float64
	cmacs, entries      uint64 // cluster pools only
	cacheHit, cacheMiss uint64
	frames, applied     uint64 // replication stream
	lag                 uint64
}

func run(o options) (*result, error) {
	sp, err := lookup(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	scale := max(1, o.scale)
	in, err := makeInputs(sp, sp.keys/scale, streamLen/scale, o.seed)
	if err != nil {
		return nil, err
	}
	if o.corrupt != nil {
		o.corrupt(in)
	}
	res := &result{info: hostInfo{Workload: sp.name, Seed: o.seed, Trace: o.trace, OfferedOps: sp.rate, Samples: map[string]int{}}}
	if o.trace {
		err = runTraced(o, sp, in, res)
	} else {
		err = runPlain(o, sp, in, res)
	}
	return res, err
}

// runPlain measures the end-to-end metrics, untraced.
func runPlain(o options, sp spec, in *inputs, res *result) error {
	vals := map[string]float64{}
	var sys system
	var times []float64
	var heap0 uint64
	for i := 0; i < setups; i++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		heap0 = settledHeap()
		t0 := time.Now()
		s, err := sp.start(o, sp, in, nil)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		sys = s
	}
	defer sys.close()
	vals["setup_s"] = median(times)
	vals["heap_mb"] = float64(int64(settledHeap())-int64(heap0)) / (1 << 20)

	c0 := sys.counters()
	do := plainOps(sys)
	cur := newCursor(in)
	d := time.Duration(o.seconds * float64(time.Second))
	// Every workload's end-to-end figures come from the closed loop (see
	// runTraced for the open loop), as medians over half-second windows:
	// a host stall then moves a few windows, not the whole run.
	windows := max(1, int(2*o.seconds))
	steal0 := readSteal()
	wins, _ := closedLoop(in, cur, d, windows, do)
	res.info.StealFrac = readSteal().since(steal0)
	wlen := d.Seconds() / float64(windows)
	rates := make([]float64, len(wins))
	var costs []float64
	for k := range wins {
		rates[k] = float64(wins[k].ops) / wlen
		if wins[k].ops > 0 && wins[k].cpu > 0 {
			costs = append(costs, float64(wins[k].cpu.Nanoseconds())/1e3/float64(wins[k].ops))
		}
	}
	// Wall throughput tracks the host's vCPU steal (on a shared 2-vCPU
	// VM it halved at ~35% steal), so it is reported with the host facts;
	// cpu_us_per_op is the end-to-end cost figure. Process CPU time
	// leaves out the time the hypervisor stole.
	res.info.ThroughputOps = median(rates)
	if len(costs) > 0 {
		vals["cpu_us_per_op"] = median(costs)
	}
	gets := func(t *tally) []int64 { return t.get }
	sets := func(t *tally) []int64 { return t.set }
	putWindowPct(vals, "get_p50_us", wins, gets, 0.50)
	putWindowPct(vals, "set_p50_us", wins, sets, 0.50)
	// The wall latencies as measured, steal and all, and the p99s, which
	// follow the host's vCPU steal too closely to bound a regression on
	// a shared machine, are reported with the host facts, over every
	// window's samples pooled (a window of the batched workload holds
	// too few for its own p99).
	all := sum(wins)
	res.info.Wall = map[string]float64{}
	putPct(res.info.Wall, "get_p50_us", all.get, 0.50)
	putPct(res.info.Wall, "get_p99_us", all.get, 0.99)
	putPct(res.info.Wall, "set_p50_us", all.set, 0.50)
	putPct(res.info.Wall, "set_p99_us", all.set, 0.99)
	res.info.Samples["get"] = len(all.get)
	res.info.Samples["set"] = len(all.set)
	res.info.Samples["windows"] = windows
	c1 := sys.counters()
	if dv := c1.vsec - c0.vsec; dv > 0 {
		vals["vthroughput_kops"] = float64(all.ops) / dv / 1e3
	}
	vals["space_amp"] = float64(c1.untrusted+c1.encl) / in.liveBytes()
	verdict(res, &all, sys.check())
	finish(res, endToEnd, vals)
	return nil
}

// verdict fills the correctness fields from the ops' outcomes and the
// after-run check.
func verdict(res *result, all *tally, checkErr error) {
	res.report.Attempted = all.ops
	res.report.Failed = all.failed + all.wrong
	res.info.WrongValue = all.wrong
	if all.ops > 0 {
		res.info.ErrorFrac = float64(res.report.Failed) / float64(all.ops)
	}
	err := errors.Join(all.firstErr, checkErr)
	if all.ops == 0 {
		err = errors.Join(err, errors.New("no ops completed"))
	}
	res.report.Correct = err == nil
	if err != nil {
		res.info.CheckError = err.Error()
	}
}

// traceSlices is how many untraced/traced pairs the traced run's closed
// loop alternates between; their throughput ratio is the tracing
// overhead.
const traceSlices = 4

// runTraced measures the per-layer metrics: closed-loop slices
// alternating between untraced and traced paths, then (networked
// workloads) a traced open-loop phase.
func runTraced(o options, sp spec, in *inputs, res *result) error {
	t := newTracer()
	sys, err := sp.start(o, sp, in, t)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer sys.close()
	t.resetCounts()
	vals := map[string]float64{}

	c0 := sys.counters()
	plain, traced := plainOps(sys), tracedOps(sys, t)
	cur := newCursor(in)
	d := time.Duration(o.seconds * float64(time.Second))
	closedD := d
	if sp.rate > 0 {
		closedD = d / 2
	}
	slice := closedD / (2 * traceSlices)
	var all, tr tally
	var uWall, tWall time.Duration
	var uOps, tOps int
	for i := 0; i < traceSlices; i++ {
		us, w := closedLoop(in, cur, slice, 1, plain)
		u := sum(us)
		uWall += w
		uOps += u.ops
		all.merge(&u)
		xs, w := closedLoop(in, cur, slice, 1, traced)
		x := sum(xs)
		tWall += w
		tOps += x.ops
		tr.merge(&x)
	}
	vals["trace.overhead_frac"] = 1 - (float64(tOps)/tWall.Seconds())/(float64(uOps)/uWall.Seconds())
	if sp.rate > 0 {
		x, err := openLoop(in, cur, sp.rate, d/2, traced)
		if err != nil {
			return err
		}
		tr.merge(&x)
		putPct(vals, "loadgen.late_p99_us", x.late, 0.99)
		res.info.Samples["open_late"] = len(x.late)
		res.info.Samples["open_get"] = len(x.get)
		res.info.Samples["open_set"] = len(x.set)
		open := map[string]float64{}
		putPct(open, "get_p50_us", x.get, 0.50)
		putPct(open, "get_p99_us", x.get, 0.99)
		putPct(open, "set_p50_us", x.set, 0.50)
		putPct(open, "set_p99_us", x.set, 0.99)
		res.info.OpenLoop = open
	}
	all.merge(&tr)
	c1 := sys.counters()

	checkErr := sys.check()
	spans := t.spans()
	spanLayers(vals, res, t, selfTimes(spans))
	sys.layers(vals, c0, c1, all.ops, len(all.get), len(all.set))
	path := filepath.Join(o.out, "trace-"+sp.name+".tsv")
	if err := writeSpans(path, spans); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	res.info.TraceFile = path
	verdict(res, &all, checkErr)
	finish(res, perLayer, vals)
	return nil
}

// settledHeap is the Go heap in use after a forced collection.
func settledHeap() uint64 {
	runtime.GC()
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// spanLayers derives the per-layer wall-time metrics from the traced
// ops' spans and the traced connections' I/O counts.
func spanLayers(vals map[string]float64, res *result, t *tracer, ops []opTimes) {
	var cself, cwait, sself, swrite, cget, cset []int64
	for i := range ops {
		ot := &ops[i]
		if ot.has[spClient] {
			cself = append(cself, ot.self[spClient])
			cwait = append(cwait, ot.tot[spClientRead])
		}
		if ot.has[spServer] {
			sself = append(sself, ot.self[spServer])
			swrite = append(swrite, ot.tot[spServerWrite])
		}
		if ot.has[spCore] {
			if ot.get {
				cget = append(cget, ot.tot[spCore])
			} else {
				cset = append(cset, ot.tot[spCore])
			}
		}
	}
	res.info.Samples["traced_ops"] = len(ops)
	res.info.Samples["traced_core_get"] = len(cget)
	res.info.Samples["traced_core_set"] = len(cset)
	putPct(vals, "core.get_us_p50", cget, 0.50)
	putPct(vals, "core.get_us_p99", cget, 0.99)
	putPct(vals, "core.set_us_p50", cset, 0.50)
	putPct(vals, "core.set_us_p99", cset, 0.99)
	// I/O counts cover every traced op, recorded or not.
	traced := float64(t.ops.Load())
	if len(cself) > 0 {
		putPct(vals, "client.self_us_p50", cself, 0.50)
		putPct(vals, "client.wait_us_p50", cwait, 0.50)
		var reads, writes int64
		for w := range t.lanes {
			reads += t.lanes[w].reads
			writes += t.lanes[w].writes
		}
		vals["client.reads_per_op"] = float64(reads) / traced
		vals["client.writes_per_op"] = float64(writes) / traced
	}
	if len(sself) > 0 {
		putPct(vals, "server.self_us_p50", sself, 0.50)
		putPct(vals, "server.write_us_p50", swrite, 0.50)
		var reads, writes, bytes int64
		for w := range t.servers {
			s := &t.servers[w]
			s.mu.Lock()
			reads, writes, bytes = reads+s.reads, writes+s.writes, bytes+s.bytes
			s.mu.Unlock()
		}
		vals["server.reads_per_op"] = float64(reads) / traced
		vals["server.writes_per_op"] = float64(writes) / traced
		vals["server.bytes_per_op"] = float64(bytes) / traced
	}
}
