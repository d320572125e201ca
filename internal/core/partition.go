package core

import (
	"errors"
	"sync"
	"sync/atomic"

	"shieldstore/internal/entry"
	"shieldstore/internal/sgx"
	"shieldstore/internal/sim"
)

// Partitioned is the §5.3 multithreaded deployment: the key space is
// partitioned by the keyed hash, each partition is an independent Store
// owned by exactly one worker thread, and no synchronization is ever
// needed on the data path (Figure 8). All partitions share one enclave
// (and therefore one EPC) and one cipher key set.
type Partitioned struct {
	enclave *sgx.Enclave
	cipher  *entry.Cipher
	//ss:partitioned
	parts []*Store // one Store per worker; data-path code owns exactly one
	//ss:partitioned
	meters []*sim.Meter // one Meter per worker, same ownership rule
	//ss:partitioned
	workers []chan *Call // per-partition submission queues
	//ss:partitioned
	ctls []chan ctlMsg // per-partition control queues (RunCtl)
	//ss:partitioned
	journals []Journal // per-partition op journals handed to workers at Start
	wg       sync.WaitGroup
	started  bool

	// partsMu guards parts against concurrent swap (InstallPart) vs the
	// control-plane readers; the data path never touches it (workers
	// receive their Store by handoff and by ctl message).
	partsMu sync.RWMutex

	// scrubSets bounds how many bucket sets a worker verifies per idle
	// wakeup (0 disables background scrubbing). Set before Start.
	scrubSets int

	// gcCopies bounds how many value-log records a worker relocates per
	// idle GC slice (0 disables background value-log GC). The GC rides
	// the same idle slots as the scrubber, after the scrub pass of a
	// quiet period completes. Set before Start.
	gcCopies int

	// events receives the index of a partition whose quarantine latch
	// just tripped (best-effort: the buffer bounds it). A healer drains
	// this to trigger rebuilds.
	events chan int

	// selfHeal marks quarantine transitions as immediately rebuilding, so
	// clients only ever observe the retryable degraded state — set by the
	// healer that guarantees a rebuild follows every latch trip.
	selfHeal atomic.Bool
}

// Journal is a per-partition durability hook: the worker logs every
// successfully applied mutation (never reads) through it, in apply
// order, before acknowledging the call. persist.WAL implements it. A
// LogOp failure detaches the journal and flags the partition's health
// (JournalLost) rather than failing the operation.
type Journal interface {
	LogOp(m *sim.Meter, kind BatchKind, key, value []byte, delta int64) error
}

// GroupJournal is a Journal with group commit: after a worker drain has
// logged all of its mutations, Commit is called exactly once — before any
// of the drain's calls are acknowledged — so the journal can flush the
// whole drain's records in one shot (the replication shipper uses this to
// ship one frame batch per drain and make "client ack implies replica
// ack" hold without a per-op network round trip). A Commit error fails
// every mutation of the drain: the ops were applied locally, but the node
// cannot vouch for them (e.g. it has been fenced out by a promoted
// replica). A LogOp error reports that a local log under the group
// journal failed: the journal drops that log itself and keeps taking and
// committing records, so the worker flags JournalLost but keeps it.
type GroupJournal interface {
	Journal
	Commit(m *sim.Meter) error
}

// WorkerState is the mutable state a partition worker owns: its store,
// its meter, and its journal. Control functions submitted via RunCtl
// receive it by pointer and may swap the store or journal — that is how
// a rebuilt partition is re-admitted without stopping the pool.
type WorkerState struct {
	Store   *Store
	Meter   *sim.Meter
	Journal Journal
}

// ctlMsg is one control-plane request executed by the owning worker
// between drains; done is closed after fn returns.
type ctlMsg struct {
	fn   func(*WorkerState)
	done chan struct{}
}

// NewPartitioned creates n partitions, splitting buckets, MAC hashes and
// cache budget evenly. Mirroring the paper, the partition count is fixed
// at creation (SGX cannot grow enclave threads dynamically).
//
//ss:xpart — constructor; workers do not exist yet.
func NewPartitioned(e *sgx.Enclave, n int, opts Options) *Partitioned {
	if n <= 0 {
		n = 1
	}
	setup := sim.NewMeter(e.Model())
	cipher := entry.NewCipher(e, setup)

	p := &Partitioned{enclave: e, cipher: cipher, events: make(chan int, 4*n)}
	per := opts
	per.Buckets = max(1, opts.Buckets/n)
	per.MACHashes = max(1, opts.MACHashes/n)
	per.CacheBytes = opts.CacheBytes / int64(n)
	per.MemBudget = opts.MemBudget / int64(n)
	p.journals = make([]Journal, n)
	for i := 0; i < n; i++ {
		s := New(e, cipher, per)
		s.SetQuarantineHook(p.hookFor(i, s))
		p.parts = append(p.parts, s)
		p.meters = append(p.meters, sim.NewMeter(e.Model()))
	}
	return p
}

// hookFor builds the quarantine-transition hook for partition i: under
// self-heal the store is flagged rebuilding in the same instant the
// latch trips (so no request ever observes the terminal ErrQuarantined),
// and the healer is woken through the events channel. The send is
// non-blocking — the buffer is sized so a drop can only mean the same
// partition already has a wake pending.
func (p *Partitioned) hookFor(i int, s *Store) func() {
	return func() {
		if p.selfHeal.Load() {
			s.MarkRebuilding()
		}
		select {
		case p.events <- i:
		default:
		}
	}
}

// Enclave returns the shared enclave.
func (p *Partitioned) Enclave() *sgx.Enclave { return p.enclave }

// EnableScrub turns on background integrity scrubbing: each worker
// verifies up to sets bucket sets per idle wakeup, pausing whenever
// requests are pending and going fully idle after a clean pass with no
// intervening traffic. Call before Start.
func (p *Partitioned) EnableScrub(sets int) { p.scrubSets = sets }

// EnableVLogGC turns on background value-log garbage collection: each
// worker relocates up to copies live records out of mostly-dead segments
// per idle slice, after its scrub pass finishes, and parks once no
// segment qualifies for collection. Call before Start.
func (p *Partitioned) EnableVLogGC(copies int) { p.gcCopies = copies }

// SetJournal attaches partition i's op journal (handed to the worker at
// Start). Call before Start.
//
//ss:xpart — control-plane configuration before workers start.
func (p *Partitioned) SetJournal(i int, j Journal) { p.journals[i] = j }

// EnableSelfHeal marks future quarantine transitions as immediately
// rebuilding (requests degrade to the retryable ErrRebuilding instead of
// the terminal ErrQuarantined). Only a healer that guarantees a rebuild
// follows every latch trip should set this.
func (p *Partitioned) EnableSelfHeal() { p.selfHeal.Store(true) }

// QuarantineEvents exposes the latch-trip notifications (partition
// indices, best-effort). A healer drains this channel.
func (p *Partitioned) QuarantineEvents() <-chan int { return p.events }

// RunCtl executes fn on partition i's worker goroutine, between drains,
// and blocks until it has run. fn receives the worker's mutable state
// and may swap the store or journal; it must not block on the worker
// pool itself. Any control intervention also re-arms the background
// scrubber for a fresh pass. Start must have been called, and the pool
// must not be stopped while a RunCtl is in flight.
//
//ss:xpart — control-plane handoff into one worker's queue.
func (p *Partitioned) RunCtl(i int, fn func(*WorkerState)) {
	done := make(chan struct{})
	p.ctls[i] <- ctlMsg{fn: fn, done: done}
	<-done
}

// InstallPart publishes a replacement store for partition i to the
// control plane and attaches the partition's quarantine hook to it.
// Called from within a RunCtl function (worker goroutine) when a healer
// swaps a rebuilt store in; the worker's own reference is the
// WorkerState field, updated by the same control function.
//
//ss:xpart — the re-admission handoff; the worker owns the new store from here on.
func (p *Partitioned) InstallPart(i int, s *Store) {
	s.SetQuarantineHook(p.hookFor(i, s))
	p.partsMu.Lock()
	p.parts[i] = s
	p.partsMu.Unlock()
}

// Health snapshots every partition's health state. Safe for concurrent
// use.
//
//ss:xpart — control-plane health probe over all partitions.
func (p *Partitioned) Health() []PartHealth {
	p.partsMu.RLock()
	defer p.partsMu.RUnlock()
	out := make([]PartHealth, len(p.parts))
	for i, s := range p.parts {
		out[i] = s.Health()
	}
	return out
}

// Parts returns the number of partitions.
func (p *Partitioned) Parts() int { return len(p.parts) }

// Started reports whether the worker pool is running. Control-plane use
// only (same goroutine discipline as Start/Stop).
func (p *Partitioned) Started() bool { return p.started }

// Part returns partition i's store.
//
//ss:xpart — test/control accessor.
func (p *Partitioned) Part(i int) *Store {
	p.partsMu.RLock()
	defer p.partsMu.RUnlock()
	return p.parts[i]
}

// Meter returns partition i's worker meter.
//
//ss:xpart — test/control accessor.
func (p *Partitioned) Meter(i int) *sim.Meter { return p.meters[i] }

// Cipher returns the shared key material.
func (p *Partitioned) Cipher() *entry.Cipher { return p.cipher }

// Route returns the partition owning key. It uses the low bits of the
// keyed hash; stores use the high bits for bucket selection, so the two
// mappings are independent.
func (p *Partitioned) Route(m *sim.Meter, key []byte) int {
	h := p.cipher.BucketHash(m, key)
	return int(h % uint64(len(p.parts)))
}

// Keys returns the total number of live keys across partitions. On a
// running pool each partition's count is read on its own worker (via
// RunCtl, between drains) — stats probes race the data path otherwise.
// Direct-driven pools read inline; those callers quiesce workers first.
//
//ss:xpart — control-plane aggregation.
func (p *Partitioned) Keys() int {
	total := 0
	if p.started {
		for i := range p.parts {
			p.RunCtl(i, func(st *WorkerState) { total += st.Store.Keys() })
		}
		return total
	}
	p.partsMu.RLock()
	defer p.partsMu.RUnlock()
	for _, s := range p.parts {
		total += s.Keys()
	}
	return total
}

// MaxCycles returns the slowest worker's virtual time — the completion
// time of a parallel phase.
//
//ss:xpart — control-plane aggregation.
func (p *Partitioned) MaxCycles() uint64 {
	var maxC uint64
	for _, m := range p.meters {
		if m.Cycles() > maxC {
			maxC = m.Cycles()
		}
	}
	return maxC
}

// ResetMeters zeroes all worker meters (between benchmark phases).
//
//ss:xpart — control-plane reset between benchmark phases.
func (p *Partitioned) ResetMeters() {
	for _, m := range p.meters {
		m.Reset()
	}
}

// AggregateStats sums event counters across workers (Cycles is the max,
// the cluster-critical-path convention). Meters are single-threaded by
// design, and stats probes (the server's CmdStats hook, a supervisor's
// lag monitor) arrive concurrently with the data path — so on a running
// pool each worker's meter is snapshotted on its own goroutine via
// RunCtl, between drains. Direct-driven pools (benchmarks) read inline.
//
//ss:xpart — control-plane aggregation.
func (p *Partitioned) AggregateStats() sim.Stats {
	var s sim.Stats
	for i, m := range p.meters {
		var snap sim.Stats
		if p.started {
			p.RunCtl(i, func(*WorkerState) { snap = m.Snapshot() })
		} else {
			snap = m.Snapshot()
		}
		for c := range snap.Events {
			s.Events[c] += snap.Events[c]
		}
		if snap.Cycles > s.Cycles {
			s.Cycles = snap.Cycles
		}
	}
	return s
}

// Start launches one worker goroutine per partition for the asynchronous
// (networked server) mode. Benchmarks drive partitions directly instead.
//
//ss:xpart — hands each worker exactly its own partition; the handoff this checker protects.
func (p *Partitioned) Start() {
	if p.started {
		return
	}
	p.started = true
	p.workers = make([]chan *Call, len(p.parts))
	p.ctls = make([]chan ctlMsg, len(p.parts))
	for i := range p.parts {
		ch := make(chan *Call, 256)
		ctl := make(chan ctlMsg, 4)
		p.workers[i] = ch
		p.ctls[i] = ctl
		st := &WorkerState{Store: p.parts[i], Meter: p.meters[i], Journal: p.journals[i]}
		p.wg.Add(1)
		go p.worker(st, ch, ctl)
	}
}

// worker owns one partition. Each wakeup drains up to drainBatch pending
// calls from the queue and executes the whole drain as a single
// ApplyBatch, so the fixed request overhead and the per-set integrity
// work are paid once per drain instead of once per op.
//
// Between drains the worker runs the background scrubber: while requests
// are pending it never scrubs; when idle it verifies scrubSets bucket
// sets per wakeup, and after a full pass uninterrupted by traffic it
// parks until the next request or control message re-arms it (a quiesced
// store the host has no reason to re-touch stays verified; any activity
// restarts the audit).
func (p *Partitioned) worker(st *WorkerState, ch chan *Call, ctl chan ctlMsg) {
	defer p.wg.Done()
	calls := make([]*Call, 0, drainBatch)
	var ops []BatchOp
	var rs []BatchResult
	scrubDone := p.scrubSets <= 0
	gcDone := p.gcCopies <= 0 || st.Store.VLog() == nil
	cleanPass := true
	for {
		var c *Call
		var ok bool
		if (scrubDone && gcDone) || st.Store.Quarantined() {
			select {
			case c, ok = <-ch:
			case msg := <-ctl:
				msg.fn(st)
				close(msg.done)
				scrubDone = p.scrubSets <= 0
				gcDone = p.gcCopies <= 0 || st.Store.VLog() == nil
				cleanPass = true
				continue
			}
		} else {
			select {
			case c, ok = <-ch:
			case msg := <-ctl:
				msg.fn(st)
				close(msg.done)
				scrubDone = p.scrubSets <= 0
				gcDone = p.gcCopies <= 0 || st.Store.VLog() == nil
				cleanPass = true
				continue
			default:
				if !scrubDone {
					wrapped, err := st.Store.ScrubSlice(st.Meter, p.scrubSets)
					if err != nil {
						// Detection already latched/flagged via noteErr;
						// the next iteration parks on the quarantined
						// branch.
						continue
					}
					if wrapped {
						if cleanPass {
							scrubDone = true
						}
						cleanPass = true
					}
					continue
				}
				// Scrub pass clean and quiet: spend the idle slice on
				// value-log GC until no segment qualifies. A zero-copy
				// slice still makes progress (it retires an all-dead
				// victim), so park only when no victim remains.
				copied, err := st.Store.VLogMaintain(st.Meter, p.gcCopies)
				if err != nil {
					continue // latched via noteErr; parks when quarantined
				}
				if copied == 0 {
					if _, more := st.Store.VLog().PickVictim(); !more {
						gcDone = true
					}
				}
				continue
			}
		}
		if !ok {
			return
		}
		calls = append(calls[:0], c)
		open := true
	drain:
		for len(calls) < drainBatch {
			select {
			case c2, ok2 := <-ch:
				if !ok2 {
					open = false
					break drain
				}
				calls = append(calls, c2)
			default:
				break drain
			}
		}
		st.Meter.Count(sim.CtrDispatch)
		ops, rs = runDrain(st, calls, ops, rs)
		cleanPass = false
		scrubDone = p.scrubSets <= 0
		if !open {
			return
		}
	}
}

// Stop drains and joins the workers. Any healer driving RunCtl must be
// stopped first: a control message submitted after the workers exit is
// never executed.
//
//ss:xpart — control-plane shutdown.
func (p *Partitioned) Stop() {
	if !p.started {
		return
	}
	for _, ch := range p.workers {
		close(ch)
	}
	p.wg.Wait()
	p.started = false
	p.workers = nil
	p.ctls = nil
}

// Get fetches key through the worker pool (Start must have been called).
func (p *Partitioned) Get(routeM *sim.Meter, key []byte) ([]byte, error) {
	val, _, err := p.Submit(routeM, BatchGet, key, nil, 0).Wait()
	return val, err
}

// Set stores key through the worker pool.
func (p *Partitioned) Set(routeM *sim.Meter, key, value []byte) error {
	_, _, err := p.Submit(routeM, BatchSet, key, value, 0).Wait()
	return err
}

// Append appends through the worker pool.
func (p *Partitioned) Append(routeM *sim.Meter, key, suffix []byte) error {
	_, _, err := p.Submit(routeM, BatchAppend, key, suffix, 0).Wait()
	return err
}

// Incr increments through the worker pool.
func (p *Partitioned) Incr(routeM *sim.Meter, key []byte, delta int64) (int64, error) {
	_, num, err := p.Submit(routeM, BatchIncr, key, nil, delta).Wait()
	return num, err
}

// Delete removes through the worker pool.
func (p *Partitioned) Delete(routeM *sim.Meter, key []byte) error {
	_, _, err := p.Submit(routeM, BatchDelete, key, nil, 0).Wait()
	return err
}

// ExecBatch routes a heterogeneous batch through the worker pool with one
// call slot per *involved partition* — not one channel round trip per
// key. Each partition executes its sub-batch via ApplyBatch (amortized
// integrity updates); the per-partition results are scattered back into
// submission order. Start must have been called.
func (p *Partitioned) ExecBatch(routeM *sim.Meter, ops []BatchOp) []BatchResult {
	return p.SubmitBatch(routeM, ops).Wait()
}

// GetMulti fetches keys with at most Parts() worker round trips. The
// result has one slot per key; missing keys are nil. Any error other than
// a miss fails the call.
func (p *Partitioned) GetMulti(routeM *sim.Meter, keys [][]byte) ([][]byte, error) {
	ops := make([]BatchOp, len(keys))
	for i, k := range keys {
		ops[i] = BatchOp{Kind: BatchGet, Key: k}
	}
	rs := p.ExecBatch(routeM, ops)
	vals := make([][]byte, len(keys))
	for i, r := range rs {
		switch {
		case r.Err == nil:
			vals[i] = r.Val
			if vals[i] == nil {
				vals[i] = []byte{}
			}
		case errors.Is(r.Err, ErrNotFound):
			vals[i] = nil
		default:
			return nil, r.Err
		}
	}
	return vals, nil
}

// Repartition rebuilds the store across a new partition count — the
// dynamic parallelism adjustment §5.3 leaves to future work (SGX1 cannot
// grow enclave *threads* at runtime, but the partition map itself can be
// rebuilt during a stop-the-world window, e.g. before spawning a
// different number of untrusted worker threads at the next restart).
//
// The rebuild decrypts every entry once and reinserts it under the new
// partition routing; the cost (charged to the supplied meter) is
// proportional to the data set, which is why the paper treats the thread
// count as fixed. The worker pool must be stopped.
//
//ss:xpart — rebuilds the partition set while workers are stopped.
func (p *Partitioned) Repartition(m *sim.Meter, n int) error {
	if p.started {
		return errors.New("core: stop the worker pool before repartitioning")
	}
	if n <= 0 {
		n = 1
	}
	if n == len(p.parts) {
		return nil
	}
	oldParts := p.parts

	// Build the new partition set with the same cipher and per-partition
	// shares of the original global configuration.
	opts := oldParts[0].Options()
	totalBuckets := opts.Buckets * len(oldParts)
	totalHashes := opts.MACHashes * len(oldParts)
	totalCache := opts.CacheBytes * int64(len(oldParts))
	totalMem := opts.MemBudget * int64(len(oldParts))
	per := opts
	per.Buckets = max(1, totalBuckets/n)
	per.MACHashes = max(1, totalHashes/n)
	per.CacheBytes = totalCache / int64(n)
	per.MemBudget = totalMem / int64(n)

	newParts := make([]*Store, n)
	newMeters := make([]*sim.Meter, n)
	for i := 0; i < n; i++ {
		newParts[i] = New(p.enclave, p.cipher, per)
		newMeters[i] = sim.NewMeter(p.enclave.Model())
	}
	// Re-route every pair. Decryption/re-encryption happens inside the
	// enclave; the old untrusted memory is abandoned to the host heap.
	route := func(key []byte) int {
		h := p.cipher.BucketHash(m, key)
		return int(h % uint64(n))
	}
	for _, s := range oldParts {
		err := s.ForEachDecrypt(m, func(k, v []byte) error {
			return newParts[route(k)].Set(m, k, v)
		})
		if err != nil {
			return err
		}
	}
	for i, s := range newParts {
		s.SetQuarantineHook(p.hookFor(i, s))
	}
	p.partsMu.Lock()
	p.parts = newParts
	p.partsMu.Unlock()
	p.meters = newMeters
	// Journals do not survive a repartition: every entry moved partitions,
	// so the old per-partition logs no longer describe the new layout.
	p.journals = make([]Journal, n)
	return nil
}
