// Pooled call slots for the worker pool — the runtime-level analogue of
// the paper's HotCalls front-end. The seed dispatch path allocated a
// closure plus a fresh `done` channel for every operation and woke the
// worker once per task; a Call is a reusable request slot (a sub-batch
// of ops, result slots, recycled completion channel) handed to
// the partition worker over a plain channel, and workers drain their
// queue in batches so one request-dispatch overhead covers a whole
// wakeup (see DESIGN.md §9 "Exitless dispatch").
package core

import (
	"sync"

	"shieldstore/internal/sim"
)

// drainBatch bounds how many pending calls a worker dequeues per wakeup.
const drainBatch = 64

// maxKeptOps caps the op capacity of batch scratch kept across calls (a
// worker's drain ops/results, a pooled Call's sub-batch), so one huge
// batch does not pin its size in every worker and pool slot.
const maxKeptOps = 1024

// Call is one in-flight sub-batch against a partition worker. Calls are
// pooled: Submit/SubmitBatch take one from the pool, the worker fills the
// result slots and signals done, and Wait recycles it. A Call must not be
// touched after Wait returns.
type Call struct {
	// The per-partition sub-batch, the submission index of each sub-op,
	// and the results slice they scatter into: a BatchCall's shared slice
	// (distinct partitions write disjoint slots), or one for a Submit.
	batch   []BatchOp
	scatter []int
	results []BatchResult
	one     [1]BatchResult

	// done is the recycled completion primitive: capacity 1, one send per
	// execution, one receive per Wait.
	done chan struct{}
}

var callPool = sync.Pool{
	New: func() any { return &Call{done: make(chan struct{}, 1)} },
}

func getCall() *Call { return callPool.Get().(*Call) }

// putCall clears the slot's references (so pooled calls don't pin request
// buffers) and returns it to the pool.
func putCall(c *Call) {
	c.results = nil
	c.one = [1]BatchResult{}
	if cap(c.batch) > maxKeptOps {
		c.batch, c.scatter = nil, nil
	} else {
		clear(c.batch)
		c.batch = c.batch[:0]
		c.scatter = c.scatter[:0]
	}
	callPool.Put(c)
}

// Submit enqueues one operation on key's partition worker, as a batch of
// one, and returns its call slot. kind is one of the Batch* op kinds;
// value holds the Set value or Append suffix, delta the Incr amount. The
// caller must keep key and value alive and unmodified until Wait returns.
// Start must have been called.
//
//ss:xpart — the dispatch plane routes into a partition's queue; the worker behind it owns the Store.
func (p *Partitioned) Submit(routeM *sim.Meter, kind BatchKind, key, value []byte, delta int64) *Call {
	c := getCall()
	c.batch = append(c.batch, BatchOp{Kind: kind, Key: key, Value: value, Delta: delta})
	c.scatter = append(c.scatter, 0)
	c.results = c.one[:]
	p.workers[p.Route(routeM, key)] <- c
	return c
}

// Wait blocks until the call completes, recycles the slot, and returns
// the result triple (value for Get, number for Incr, error) of a Submit.
func (c *Call) Wait() ([]byte, int64, error) {
	<-c.done
	r := c.one[0]
	putCall(c)
	return r.Val, r.Num, r.Err
}

// BatchCall tracks a heterogeneous batch in flight across partitions: one
// pooled Call per involved partition, all scattering into one shared
// results slice.
type BatchCall struct {
	results []BatchResult
	calls   []*Call
}

// SubmitBatch routes ops to their partition workers (one call slot per
// involved partition, as ExecBatch always did) without waiting. The
// caller must keep the ops' key/value buffers alive until Wait returns.
//
//ss:xpart — dispatch-plane routing across partition queues.
func (p *Partitioned) SubmitBatch(routeM *sim.Meter, ops []BatchOp) *BatchCall {
	bc := &BatchCall{results: make([]BatchResult, len(ops))}
	if len(ops) == 0 {
		return bc
	}
	calls := make([]*Call, len(p.parts))
	for i := range ops {
		part := p.Route(routeM, ops[i].Key)
		c := calls[part]
		if c == nil {
			c = getCall()
			c.results = bc.results
			calls[part] = c
		}
		c.batch = append(c.batch, ops[i])
		c.scatter = append(c.scatter, i)
	}
	for part, c := range calls {
		if c != nil {
			bc.calls = append(bc.calls, c)
			p.workers[part] <- c
		}
	}
	return bc
}

// Wait blocks until every partition's sub-batch completes and returns the
// results in submission order.
func (bc *BatchCall) Wait() []BatchResult {
	for _, c := range bc.calls {
		<-c.done
		putCall(c)
	}
	return bc.results
}

// journalOp logs one successfully applied mutation through the worker's
// journal, in apply order, before the call is acknowledged. A journal
// write failure never fails the client operation — the in-memory store is
// intact — but the log is now incomplete: the partition is flagged
// (JournalLost) so health reports it and auto-heal refuses to rebuild
// from a log missing acknowledged writes. A plain Journal is detached; a
// GroupJournal has dropped only its failed local log and stays attached,
// so the drain still commits and later mutations still reach it.
func journalOp(st *WorkerState, kind BatchKind, key, value []byte, delta int64) {
	if st.Journal == nil {
		return
	}
	if err := st.Journal.LogOp(st.Meter, kind, key, value, delta); err != nil {
		st.Store.noteJournalLost()
		if _, group := st.Journal.(GroupJournal); !group {
			st.Journal = nil
		}
	}
}

// commitJournal runs the group-commit barrier for one drain: after the
// drain's mutations were journaled (journaled true), a GroupJournal's
// Commit must complete before any call is acknowledged. The returned
// error, if any, retracts the drain's mutations — applied locally, but
// the journal (e.g. the replication stream) cannot vouch for them.
func commitJournal(st *WorkerState, journaled bool) error {
	if !journaled || st.Journal == nil {
		return nil
	}
	gj, ok := st.Journal.(GroupJournal)
	if !ok {
		return nil
	}
	return gj.Commit(st.Meter)
}

// runDrain executes one worker wakeup's worth of calls as one
// ApplyBatch, so the whole drain pays one request overhead and shares set
// verifies — the same amortization ApplyBatch gives explicit batches,
// applied to concurrent single-op traffic. ops and rs are worker-local
// scratch, returned so grown backings are kept.
func runDrain(st *WorkerState, calls []*Call, ops []BatchOp, rs []BatchResult) ([]BatchOp, []BatchResult) {
	ops = ops[:0]
	for _, c := range calls {
		ops = append(ops, c.batch...)
	}
	if cap(rs) < len(ops) {
		rs = make([]BatchResult, len(ops))
	} else {
		rs = rs[:len(ops)]
		clear(rs)
	}
	st.Store.ApplyBatchInto(st.Meter, ops, rs)
	journaled := false
	for i := range ops {
		if rs[i].Err == nil && ops[i].Kind != BatchGet {
			journalOp(st, ops[i].Kind, ops[i].Key, ops[i].Value, ops[i].Delta)
			journaled = true
		}
	}
	if cerr := commitJournal(st, journaled); cerr != nil {
		for i := range ops {
			if rs[i].Err == nil && ops[i].Kind != BatchGet {
				rs[i].Err = cerr
			}
		}
	}
	pos := 0
	for _, c := range calls {
		for j := range c.batch {
			c.results[c.scatter[j]] = rs[pos+j]
		}
		pos += len(c.batch)
		c.done <- struct{}{}
	}
	if cap(ops) > maxKeptOps {
		return nil, nil
	}
	clear(ops) // drop request-buffer refs before the scratch idles
	return ops[:0], rs
}
