// Tiered hybrid storage glue (DESIGN.md §14): values above the spill
// threshold move to the untrusted value log once the in-memory budget is
// pressed; the chained entry then stores a sealed 16-byte pointer with
// FlagSpilled set. Gets fault the value back through the EPC cache
// (promote-on-read hot tier); GC copies live records out of mostly-dead
// segments during idle partition-worker slices.
package core

import (
	"crypto/subtle"
	"fmt"

	"shieldstore/internal/entry"
	"shieldstore/internal/sim"
	"shieldstore/internal/vlog"
)

// AttachVLog wires a value log into the store. Must be called before
// serving; a store without a log never spills.
func (s *Store) AttachVLog(l *vlog.Log) { s.vlog = l }

// VLog returns the attached value log (nil when tiering is disabled).
func (s *Store) VLog() *vlog.Log { return s.vlog }

// InlineValueBytes returns the in-memory value footprint the spill budget
// is charged against.
func (s *Store) InlineValueBytes() int64 { return s.inlineValBytes }

// ConfigureCache replaces the EPC plaintext cache with a fresh one of the
// given budget (0 disables it). Rebuild paths MUST use this rather than
// carrying the old cache across: the admission-sampling state (fills,
// hits, misses) is calibrated to the dead store's traffic and would keep
// a rebuilt cache in bypass mode long after the workload changed.
func (s *Store) ConfigureCache(budget int64) {
	s.opts.CacheBytes = budget
	if budget > 0 {
		s.cache = newEPCCache(s.enclave, budget)
	} else {
		s.cache = nil
	}
}

// CacheBudget returns the EPC plaintext cache's configured budget, or 0
// when no cache is attached — the observable restore/rebuild paths must
// preserve.
func (s *Store) CacheBudget() int64 {
	if s.cache == nil {
		return 0
	}
	return s.cache.budget
}

// shouldSpill decides whether a value being written goes to the value
// log: tiering attached, value at or above the threshold, and the
// in-memory budget (when set) would be exceeded by keeping it inline.
func (s *Store) shouldSpill(val []byte) bool {
	if s.vlog == nil || s.opts.SpillThreshold <= 0 || len(val) < s.opts.SpillThreshold {
		return false
	}
	return s.opts.MemBudget == 0 || s.inlineValBytes+int64(len(val)) > s.opts.MemBudget
}

// decodeSpilled unpacks the sealed pointer payload of a FlagSpilled
// entry. The payload was MAC-verified as part of the entry, so a decode
// failure means enclave-side state is inconsistent, not host tampering —
// but it is surfaced as ErrIntegrity all the same so the partition
// quarantines rather than serving garbage.
func (s *Store) decodeSpilled(ptrBytes []byte) (vlog.Ptr, error) {
	if s.vlog == nil {
		return vlog.Ptr{}, fmt.Errorf("%w: spilled entry but no value log attached", ErrIntegrity)
	}
	p, err := vlog.DecodePtr(ptrBytes)
	if err != nil {
		return vlog.Ptr{}, fmt.Errorf("%w: %w", ErrIntegrity, err)
	}
	return p, nil
}

// faultSpilled resolves a FlagSpilled entry's pointer payload to the
// logical value, reading and authenticating the sealed record from the
// untrusted log. The record's key must match the entry's key: the pointer
// is enclave-sealed, so a mismatch means the enclave's own freshness
// state disagrees with the record — treated as an integrity violation.
func (s *Store) faultSpilled(m *sim.Meter, key, ptrBytes []byte) (vlog.Ptr, []byte, error) {
	p, err := s.decodeSpilled(ptrBytes)
	if err != nil {
		return vlog.Ptr{}, nil, err
	}
	rkey, val, err := s.vlog.Read(m, p)
	if err != nil {
		return vlog.Ptr{}, nil, fmt.Errorf("%w: value log: %w", ErrIntegrity, err)
	}
	if subtle.ConstantTimeCompare(rkey, key) != 1 {
		return vlog.Ptr{}, nil, fmt.Errorf("%w: value log record key mismatch", ErrIntegrity)
	}
	m.Count(sim.CtrVLogFault)
	return p, val, nil
}

// VLogMaintain runs one garbage-collection slice: pick the deadest
// eligible segment, copy up to maxCopies live records forward to the log
// tail (rewriting their pointer entries in place), and retire the segment
// once fully drained. Returns the number of records copied. Designed to
// ride the idle partition-worker slots like ScrubSlice: a segment not
// drained within the budget is finished by later slices.
//
//ss:attacker — walks chains in untrusted memory and reads the untrusted log.
func (s *Store) VLogMaintain(m *sim.Meter, maxCopies int) (copied int, err error) {
	if s.vlog == nil {
		return 0, nil
	}
	if err := s.guard(); err != nil {
		return 0, err
	}
	defer func() { s.noteErr(m, err) }()

	seg, ok := s.vlog.PickVictim()
	if !ok {
		return 0, nil
	}
	type rec struct {
		p   vlog.Ptr
		key []byte
		val []byte
	}
	var recs []rec
	err = s.vlog.Scan(m, seg, func(p vlog.Ptr, key, val []byte) error {
		recs = append(recs, rec{p: p, key: append([]byte(nil), key...), val: append([]byte(nil), val...)})
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("%w: value log: %w", ErrIntegrity, err)
	}
	// The copy budget counts actual relocations, not records examined:
	// dead records cost one index probe each and must not starve the
	// slice, or a segment fronted by dead records would never drain.
	for _, r := range recs {
		if maxCopies > 0 && copied >= maxCopies {
			return copied, nil // budget hit: later slices finish the drain
		}
		moved, rerr := s.relocateSpilled(m, r.key, r.p, r.val)
		if rerr != nil {
			return copied, rerr
		}
		if moved {
			copied++
			m.Count(sim.CtrVLogGCCopy)
		}
	}
	// Full pass: every record is relocated or dead in the index — the
	// segment holds no live data and can be retired (deferred deletion;
	// the file goes away at the next PurgeRetired).
	s.vlog.Retire(m, seg)
	return copied, nil
}

// relocateSpilled moves one live log record to the tail: re-verify that
// the chained entry still points at oldPtr (it may have been overwritten
// or deleted since the scan), append the value at the tail, and rewrite
// the pointer payload in place. Reports whether a copy happened.
func (s *Store) relocateSpilled(m *sim.Meter, key []byte, oldPtr vlog.Ptr, val []byte) (bool, error) {
	b := s.bucketOf(m, key)
	v, err := s.collectSet(m, b)
	if err != nil {
		return false, err
	}
	if err := s.verifySet(m, &v); err != nil {
		return false, err
	}
	res, err := s.search(m, b, key)
	if err != nil {
		return false, err
	}
	defer res.release()
	if !res.found || res.hdr.Flags&entry.FlagSpilled == 0 {
		return false, nil // overwritten inline or deleted since the scan
	}
	if err := s.verifyEntry(m, &v, &res); err != nil {
		return false, err
	}
	cur, err := s.decodeSpilled(res.val)
	if err != nil {
		return false, err
	}
	if cur != oldPtr {
		return false, nil // already relocated or rewritten
	}
	newPtr, err := s.vlog.Append(m, key, val)
	if err != nil {
		return false, err
	}
	var pb [vlog.PtrSize]byte
	newPtr.Encode(pb[:])
	if err := s.updateInPlace(m, &v, &res, key, pb[:]); err != nil {
		return false, err
	}
	s.writeSetHash(m, &v)
	s.vlog.MarkDead(m, oldPtr)
	return true, nil
}

// auditSpilled extends the background scrubber's per-set audit to the
// cold tier: for every FlagSpilled entry in bucket b, decode its pointer
// and verify the sealed log record in place, so silent disk corruption or
// rollback is found by the scrub pass, not by the next unlucky Get.
func (s *Store) auditSpilled(m *sim.Meter, b int) error {
	link := s.headAddr(b)
	cur, err := s.readPtr(m, link)
	if err != nil {
		return err
	}
	hops := 0
	for cur != 0 {
		if hops++; hops > s.keys+1 {
			return ErrIntegrity
		}
		hb := getScratch(entry.HeaderSize)
		s.space.Peek(cur, *hb)
		hdr := entry.ParseHeader(*hb)
		putScratch(hb)
		if err := s.checkSpan(cur, hdr.TotalLen()); err != nil {
			return err
		}
		if hdr.Flags&entry.FlagSpilled != 0 {
			// Entry authenticity (header, ciphertext, flags) was already
			// established by verifyBucketEntries earlier in the scrub
			// pass; here we only chase the pointer into the log.
			ctp := getScratch(hdr.CTLen())
			ct := *ctp
			s.space.Peek(cur+entry.HeaderSize, ct)
			pt := make([]byte, len(ct))
			s.cipher.DecryptKV(m, &hdr.IV, ct, pt)
			putScratch(ctp)
			p, err := s.decodeSpilled(pt[hdr.KeySize:])
			if err != nil {
				return err
			}
			if err := s.vlog.Verify(m, p); err != nil {
				return fmt.Errorf("%w: value log: %w", ErrIntegrity, err)
			}
		}
		cur = hdr.Next
	}
	return nil
}
