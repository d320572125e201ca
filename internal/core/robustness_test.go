// Regression tests for the attacker-reachable panic audit and the
// graceful-degradation reactions: every host tampering below must land
// as a typed error (ErrIntegrity / ErrCorruptPointer / ErrQuarantined),
// never a panic, hang, or silently wrong answer.
package core

import (
	"errors"
	"fmt"
	"testing"

	"shieldstore/internal/entry"
	"shieldstore/internal/fault"
	"shieldstore/internal/mem"
	"shieldstore/internal/sim"
)

func TestBucketOffsetMissingIsTyped(t *testing.T) {
	v := setView{buckets: []int{3, 7}, offs: []int{0, 32}, cnts: []int{2, 2}}
	if _, _, ok := v.bucketOffset(5); ok {
		t.Fatal("bucket 5 should not resolve in the view")
	}
	s, m := newTestStore(Defaults(4))
	must(t, s.Set(m, []byte("a"), []byte("1")))
	res := lookup{bucket: 99}
	if _, err := s.positionOf(&v, &res); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("positionOf on foreign bucket: %v, want ErrIntegrity", err)
	}
}

// fillStore seeds n keys and returns one present key's bucket and chain
// address for tampering.
func fillStore(t *testing.T, opts Options, n int) (*Store, *sim.Meter, []byte, int, mem.Addr) {
	t.Helper()
	s, m := newTestStore(opts)
	for i := 0; i < n; i++ {
		must(t, s.Set(m, []byte(fmt.Sprintf("rk%03d", i)), []byte(fmt.Sprintf("rv%03d", i))))
	}
	key := []byte("rk005")
	b := s.bucketOf(m, key)
	res, err := s.search(m, b, key)
	must(t, err)
	if !res.found {
		t.Fatal("victim key missing")
	}
	return s, m, key, b, res.addr
}

func TestPhantomMissDetected(t *testing.T) {
	// Corrupting ciphertext garbles the decrypted key, so the chain walk
	// misses — but the miss must not be *reported*: the content
	// re-authentication on the report path has to flag it.
	for name, opts := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			s, m, key, _, addr := fillStore(t, opts, 40)
			s.space.Tamper(addr+entry.HeaderSize+1, []byte{0x5A})
			if _, err := s.Get(m, key); !errors.Is(err, ErrIntegrity) {
				t.Fatalf("Get on ciphertext-corrupted key: %v, want ErrIntegrity", err)
			}
			if err := s.Delete(m, key); !errors.Is(err, ErrIntegrity) {
				t.Fatalf("Delete on ciphertext-corrupted key: %v, want ErrIntegrity", err)
			}
		})
	}
}

func TestChainCycleDetected(t *testing.T) {
	for _, macBucket := range []bool{true, false} {
		t.Run(fmt.Sprintf("macBucket=%v", macBucket), func(t *testing.T) {
			opts := Defaults(2)
			opts.MACBucket = macBucket
			s, m, key, _, addr := fillStore(t, opts, 30)
			// Self-loop: the entry's next pointer aims back at itself.
			var self [8]byte
			putLeU64t(self[:], uint64(addr))
			s.space.Tamper(addr+entry.OffNext, self[:])
			if _, err := s.Get(m, []byte("definitely-absent")); err == nil {
				t.Fatal("cyclic chain served a clean miss")
			}
			if _, err := s.Get(m, key); err == nil {
				// The victim may still be found before the cycle; the
				// mutated chain must fail the set verify instead.
				if err := s.VerifyAll(m); err == nil {
					t.Fatal("cyclic chain passed full verification")
				}
			}
		})
	}
}

func TestWildNextPointerTyped(t *testing.T) {
	// Point an entry's next pointer at unallocated untrusted memory: the
	// walk must fail typed instead of faulting past the heap.
	s, m, key, _, addr := fillStore(t, Defaults(2), 30)
	var wild [8]byte
	putLeU64t(wild[:], uint64(mem.UntrustedBase+(1<<40)))
	s.space.Tamper(addr+entry.OffNext, wild[:])
	if _, err := s.Get(m, key); err == nil {
		if _, err := s.Get(m, []byte("absent")); !errors.Is(err, ErrCorruptPointer) && !errors.Is(err, ErrIntegrity) {
			t.Fatalf("wild next pointer: %v", err)
		}
	}
	if err := s.VerifyAll(m); err == nil {
		t.Fatal("wild next pointer passed full verification")
	}
}

func TestSidecarShortAllocationTyped(t *testing.T) {
	// Repoint a MAC-bucket head at an allocation too small for the MAC
	// area: the sidecar read must be span-checked, not walk off the heap.
	s, m, key, b, _ := fillStore(t, Defaults(2), 30)
	small := s.space.Alloc(mem.Untrusted, entry.HeaderSize+2)
	var cnt [4]byte
	putLeU32(cnt[:], 5)
	s.space.Tamper(small+8, cnt[:])
	var ptr [8]byte
	putLeU64t(ptr[:], uint64(small))
	s.space.Tamper(s.macHeadAddr(b), ptr[:])
	if _, err := s.Get(m, key); !errors.Is(err, ErrCorruptPointer) && !errors.Is(err, ErrIntegrity) {
		t.Fatalf("short sidecar allocation: %v", err)
	}
}

func TestForEachBucketRawTamperTyped(t *testing.T) {
	s, m, _, b, addr := fillStore(t, Defaults(2), 30)
	_ = m
	// Oversized length fields must be rejected before allocation.
	var huge [4]byte
	putLeU32(huge[:], 1<<30)
	s.space.Tamper(addr+entry.OffKeySize, huge[:])
	err := s.ForEachBucketRaw(func(int, [][]byte) error { return nil })
	if !errors.Is(err, ErrIntegrity) && !errors.Is(err, ErrCorruptPointer) {
		t.Fatalf("oversized entry in snapshot walk: %v", err)
	}
	// And a wild head pointer must fail typed too.
	var wild [8]byte
	putLeU64t(wild[:], uint64(mem.UntrustedBase+(1<<40)))
	s.space.Tamper(s.headAddr(b), wild[:])
	err = s.ForEachBucketRaw(func(int, [][]byte) error { return nil })
	if !errors.Is(err, ErrCorruptPointer) {
		t.Fatalf("wild head in snapshot walk: %v, want ErrCorruptPointer", err)
	}
}

func TestQuarantineLatch(t *testing.T) {
	opts := Defaults(2)
	opts.Quarantine = true
	s, m, key, _, addr := fillStore(t, opts, 30)
	s.space.Tamper(addr+entry.OffMAC, []byte{0xAA, 0xBB})
	s.space.Tamper(addr+entry.HeaderSize, []byte{0xCC})

	if _, err := s.Get(m, key); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tampered get: %v, want ErrIntegrity", err)
	}
	if !s.Quarantined() {
		t.Fatal("integrity failure did not trip the quarantine latch")
	}
	// Every operation now fails fast with the typed isolation error —
	// including ops on keys the tampering never touched.
	if _, err := s.Get(m, []byte("rk001")); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("quarantined get: %v, want ErrQuarantined", err)
	}
	if err := s.Set(m, []byte("new"), []byte("x")); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("quarantined set: %v, want ErrQuarantined", err)
	}
	if err := s.Delete(m, []byte("rk001")); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("quarantined delete: %v, want ErrQuarantined", err)
	}
	rs := s.ApplyBatch(m, []BatchOp{{Kind: BatchGet, Key: []byte("rk001")}})
	if !errors.Is(rs[0].Err, ErrQuarantined) {
		t.Fatalf("quarantined batch: %v, want ErrQuarantined", rs[0].Err)
	}
	if m.Events(sim.CtrQuarantine) != 1 {
		t.Fatalf("CtrQuarantine = %d, want 1 (latch transition only)", m.Events(sim.CtrQuarantine))
	}
	if m.Events(sim.CtrIntegrityFail) == 0 {
		t.Fatal("CtrIntegrityFail not counted")
	}
	// Unquarantine is verify-first: on a still-corrupt store it must
	// refuse and leave the latch set.
	if err := s.Unquarantine(m); err == nil {
		t.Fatal("Unquarantine cleared a still-corrupt store")
	}
	if !s.Quarantined() {
		t.Fatal("refused Unquarantine cleared the latch anyway")
	}
	// The operator override clears unconditionally.
	s.ForceUnquarantine()
	if s.Quarantined() {
		t.Fatal("ForceUnquarantine did not clear the latch")
	}
}

func TestInjectionPointsDetected(t *testing.T) {
	// Each armed corruption must surface as ErrIntegrity on the very
	// operation whose set collection it preceded (or, for entry flips that
	// garble a different key than the one fetched, on the full scrub).
	cases := []struct {
		point string
		opts  Options
	}{
		{fault.PointChainSplice, Defaults(2)},
		{fault.PointEntryFlip, Defaults(2)},
		{fault.PointMACSidecar, Defaults(2)},
		{fault.PointMerkleLeaf, func() Options {
			o := Defaults(8)
			o.MerkleTree = true
			return o
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.point, func(t *testing.T) {
			s, m, key, _, _ := fillStore(t, tc.opts, 30)
			p := fault.New(7)
			s.SetFaultPlane(p)
			p.Arm(tc.point, fault.Spec{})
			_, opErr := s.Get(m, key)
			if p.Fired(tc.point) != 1 {
				t.Fatalf("point fired %d times, want 1", p.Fired(tc.point))
			}
			if m.Events(sim.CtrFaultInjected) != 1 {
				t.Fatalf("CtrFaultInjected = %d, want 1", m.Events(sim.CtrFaultInjected))
			}
			if opErr == nil {
				// The flip may have hit a non-target key: the scrub must see it.
				if err := s.VerifyAll(m); !errors.Is(err, ErrIntegrity) && !errors.Is(err, ErrCorruptPointer) {
					t.Fatalf("injected %s went undetected: op=nil scrub=%v", tc.point, err)
				}
			} else if !errors.Is(opErr, ErrIntegrity) && !errors.Is(opErr, ErrCorruptPointer) {
				t.Fatalf("injected %s: op error %v is not integrity-typed", tc.point, opErr)
			}
			if m.Events(sim.CtrIntegrityFail) == 0 {
				t.Fatal("CtrIntegrityFail not counted for injected fault")
			}
		})
	}
}

func TestQuarantinedPartsIsolation(t *testing.T) {
	// One partition detects tampering and isolates itself; its siblings
	// keep serving. Driven synchronously (no worker pool) so the tamper
	// targets a deterministic partition.
	opts := Defaults(16)
	opts.Quarantine = true
	e := testEnclave(8 << 20)
	p := NewPartitioned(e, 4, opts)
	m := sim.NewMeter(e.Model())
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("qk%03d", i))
		must(t, p.Part(p.Route(m, keys[i])).Set(m, keys[i], []byte("v")))
	}
	victim := keys[0]
	vp := p.Route(m, victim)
	vs := p.Part(vp)
	b := vs.bucketOf(m, victim)
	res, err := vs.search(m, b, victim)
	must(t, err)
	vs.space.Tamper(res.addr+entry.HeaderSize, []byte{0xEE})

	if _, err := vs.Get(m, victim); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tampered partition get: %v, want ErrIntegrity", err)
	}
	qp := p.QuarantinedParts()
	if len(qp) != 1 || qp[0] != vp {
		t.Fatalf("QuarantinedParts = %v, want [%d]", qp, vp)
	}
	served, failed := 0, 0
	for _, k := range keys {
		part := p.Route(m, k)
		_, err := p.Part(part).Get(m, k)
		switch {
		case part == vp:
			if !errors.Is(err, ErrQuarantined) {
				t.Fatalf("key %s on quarantined part: %v", k, err)
			}
			failed++
		case err != nil:
			t.Fatalf("key %s on healthy part %d: %v", k, part, err)
		default:
			served++
		}
	}
	if served == 0 || failed == 0 {
		t.Fatalf("served=%d failed=%d: test never exercised both sides", served, failed)
	}
}

// TestQuarantineChargesNothing pins the quarantine rule: a quarantined
// partition refuses every key operation before charging anything — no
// request overhead, no bucket hash, no plaintext-cache probe — whether
// the op arrives alone or in a batch.
func TestQuarantineChargesNothing(t *testing.T) {
	cached := Defaults(64)
	cached.CacheBytes = 1 << 20
	for name, opts := range map[string]Options{"ShieldOpt": Defaults(64), "Cached": cached} {
		t.Run(name, func(t *testing.T) {
			opts.Quarantine = true
			s, m, key, _, _ := fillStore(t, opts, 30)
			if _, err := s.Get(m, key); err != nil { // warm the cache
				t.Fatal(err)
			}
			s.quarantined.Store(true)
			ops := map[string]func() error{
				"Get":    func() error { _, err := s.Get(m, key); return err },
				"Set":    func() error { return s.Set(m, key, []byte("x")) },
				"Delete": func() error { return s.Delete(m, key) },
				"Append": func() error { return s.Append(m, key, []byte("x")) },
				"Incr":   func() error { _, err := s.Incr(m, []byte("ctr"), 1); return err },
				"ApplyBatch": func() error {
					rs := s.ApplyBatch(m, []BatchOp{
						{Kind: BatchGet, Key: key},
						{Kind: BatchSet, Key: []byte("new"), Value: []byte("v")},
						{Kind: BatchDelete, Key: []byte("rk001")},
						{Kind: BatchAppend, Key: []byte("rk002"), Value: []byte("x")},
						{Kind: BatchIncr, Key: []byte("ctr"), Delta: 1},
					})
					for _, r := range rs {
						if !errors.Is(r.Err, ErrQuarantined) {
							return r.Err
						}
					}
					return rs[0].Err
				},
			}
			for op, f := range ops {
				cycles, reqs := m.Cycles(), m.Events(sim.CtrRequest)
				if err := f(); !errors.Is(err, ErrQuarantined) {
					t.Fatalf("%s: %v, want ErrQuarantined", op, err)
				}
				if d := m.Cycles() - cycles; d != 0 {
					t.Errorf("%s charged %d cycles on a quarantined store", op, d)
				}
				if d := m.Events(sim.CtrRequest) - reqs; d != 0 {
					t.Errorf("%s counted %d requests on a quarantined store", op, d)
				}
			}
		})
	}
}
