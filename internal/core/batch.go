// Batched operation execution with amortized bucket-set integrity
// updates — the store's one execution path.
//
// Every key operation runs the §4.3 integrity protocol: gather the
// bucket set's MAC list, verify it against the in-enclave MAC hash,
// apply the op, recompute and store the hash. ApplyBatch groups a batch's
// ops by bucket set and runs that protocol once per *touched set* instead
// of once per op: one collection, one verification, N applications
// against the verified in-enclave view, one hash recompute. A single op
// (Store.Get/Set/...) is a batch of one and pays the protocol once. For
// skewed workloads — where most ops land in a few hot sets — the dominant
// CMAC-over-set cost is amortized N-fold with an unchanged guarantee
// (see DESIGN.md, "Batch amortization").
package core

import (
	"cmp"
	"errors"
	"slices"

	"shieldstore/internal/sim"
)

// ErrBadBatchOp reports a batch operation kind the engine cannot execute.
var ErrBadBatchOp = errors.New("shieldstore: unsupported batch operation")

// BatchKind identifies one operation type inside a batch.
type BatchKind uint8

// Batch operation kinds.
const (
	BatchGet BatchKind = iota
	BatchSet
	BatchDelete
	BatchAppend
	BatchIncr
)

// BatchOp is one operation of a heterogeneous batch. Value holds the Set
// value or the Append suffix; Delta the Incr amount.
type BatchOp struct {
	Kind  BatchKind
	Key   []byte
	Value []byte
	Delta int64
}

// BatchResult is the per-op outcome. Errors are isolated per op: a miss
// or an integrity violation taints only the ops it actually affects, not
// the whole batch.
type BatchResult struct {
	Val []byte
	Num int64
	Err error
}

// batchPos ties an op's submission index to its resolved bucket and
// integrity group. first is the submission index of the group's first op
// (its first touch), filled in by groupOrder.
type batchPos struct {
	idx    int
	bucket int
	group  int
	first  int
}

// setGroupID returns the integrity-group key of bucket b: with the
// flattened MAC hash array (§4.3) a whole bucket set {b' : b' ≡ b mod
// MACHashes} shares one hash slot; in Merkle mode every bucket is its own
// leaf.
func (s *Store) setGroupID(b int) int {
	if s.tree != nil {
		return b
	}
	return b % s.opts.MACHashes
}

// ApplyBatch executes ops against this partition, amortizing the fixed
// request overhead (charged once per batch — the batch *is* one request)
// and the per-set integrity work across the batch. Ops are applied
// grouped by bucket set in first-touch order; ops on the same key always
// share a set, so per-key ordering follows submission order. The returned
// slice has one result per op, in submission order.
//
//ss:attacker — batch ops arrive from the wire.
func (s *Store) ApplyBatch(m *sim.Meter, ops []BatchOp) []BatchResult {
	results := make([]BatchResult, len(ops))
	s.ApplyBatchInto(m, ops, results)
	return results
}

// ApplyBatchInto is ApplyBatch writing into a caller-provided results
// slice (len(results) must equal len(ops), zero-valued). It is the only
// way the store executes a key operation: the single-op entry points run
// a batch of one through it, and worker drains reuse one results buffer
// across wakeups through it.
//
// A quarantined partition refuses the whole batch before charging
// anything; a latch that trips mid-batch fails the groups not yet run.
//
//ss:attacker — batch ops arrive from the wire.
func (s *Store) ApplyBatchInto(m *sim.Meter, ops []BatchOp, results []BatchResult) {
	if len(ops) == 0 {
		return
	}
	if err := s.guard(); err != nil {
		for i := range ops {
			results[i].Err = err
		}
		return
	}
	m.Charge(s.model.RequestOverhead)
	m.Count(sim.CtrRequest)

	// Resolve plaintext-cache hits up front — they need no integrity work
	// — and queue the rest with their bucket set.
	pend := s.batchPend[:0]
	for i := range ops {
		op := &ops[i]
		b := s.bucketOf(m, op.Key)
		if op.Kind == BatchGet && s.cache != nil {
			if val, ok := s.cache.get(m, op.Key); ok {
				results[i] = BatchResult{Val: val}
				continue
			}
		}
		pend = append(pend, batchPos{idx: i, bucket: b, group: s.setGroupID(b)})
	}
	groupOrder(pend)
	for start := 0; start < len(pend); {
		end := start + 1
		for end < len(pend) && pend[end].group == pend[start].group {
			end++
		}
		group := pend[start:end]
		start = end
		if gerr := s.guard(); gerr != nil {
			// An earlier group in this batch tripped the latch: fail the
			// remaining groups fast, with the retryable ErrRebuilding when
			// a rebuild is in flight.
			for _, g := range group {
				results[g.idx].Err = gerr
			}
			continue
		}
		s.applySetGroup(m, group, ops, results)
	}
	if cap(pend) > maxKeptOps {
		pend = nil
	}
	s.batchPend = pend[:0]
}

// groupOrder sorts pend into contiguous bucket-set groups, the groups in
// first-touch order and each group's ops in submission order: the order
// the set protocol runs them in.
func groupOrder(pend []batchPos) {
	if len(pend) < 2 {
		return
	}
	slices.SortFunc(pend, func(a, b batchPos) int {
		return cmp.Or(cmp.Compare(a.group, b.group), cmp.Compare(a.idx, b.idx))
	})
	for start := 0; start < len(pend); {
		first := pend[start].idx
		end := start
		for ; end < len(pend) && pend[end].group == pend[start].group; end++ {
			pend[end].first = first
		}
		start = end
	}
	slices.SortFunc(pend, func(a, b batchPos) int {
		return cmp.Or(cmp.Compare(a.first, b.first), cmp.Compare(a.idx, b.idx))
	})
}

// applySetGroup runs every op touching one bucket set: collect the set's
// MAC material once, verify it against the in-enclave MAC hash once,
// apply each op against the verified in-enclave view, and write the
// recomputed hash back once. Equivalent to the per-op protocol because
// the view is the enclave's authoritative copy between the initial
// verification and the final commit — no unverified untrusted state is
// ever trusted in between (the partition is single-owner, §5.3).
func (s *Store) applySetGroup(m *sim.Meter, group []batchPos, ops []BatchOp, results []BatchResult) {
	v, err := s.collectSet(m, group[0].bucket)
	if err == nil {
		err = s.verifySet(m, &v)
	}
	if err != nil {
		// The whole set failed authentication: every op that needed this
		// set is affected — and only those.
		s.noteErr(m, err)
		for _, g := range group {
			results[g.idx].Err = err
		}
		return
	}

	dirty := false
	var poisoned error
	for _, g := range group {
		r := &results[g.idx]
		if poisoned != nil {
			r.Err = poisoned
			continue
		}
		op := &ops[g.idx]
		switch op.Kind {
		case BatchGet:
			r.Val, r.Err = s.getInView(m, &v, g.bucket, op.Key)
		case BatchSet, BatchAppend, BatchIncr:
			r.Num, r.Err = s.mutateInView(m, &v, g.bucket, op)
			dirty = dirty || r.Err == nil
		case BatchDelete:
			r.Err = s.deleteInView(m, &v, g.bucket, op.Key)
			dirty = dirty || r.Err == nil
		default:
			r.Err = ErrBadBatchOp
		}
		s.noteErr(m, r.Err)
		if errors.Is(r.Err, ErrCorruptPointer) {
			// A corrupt untrusted pointer can surface mid-mutation, so the
			// chain may be half-rewritten; applying further ops to this
			// set would compound the damage. Fail the rest of the group.
			poisoned = r.Err
		}
	}
	if dirty {
		s.writeSetHash(m, &v)
	}
}
