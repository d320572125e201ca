package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"shieldstore/internal/entry"
	"shieldstore/internal/mem"
	"shieldstore/internal/sgx"
	"shieldstore/internal/sim"
)

func testEnclave(epcBytes int64) *sgx.Enclave {
	space := mem.NewSpace(mem.Config{EPCBytes: epcBytes})
	return sgx.New(sgx.Config{Space: space, Seed: 11})
}

func newTestStore(opts Options) (*Store, *sim.Meter) {
	e := testEnclave(8 << 20)
	s := New(e, nil, opts)
	return s, sim.NewMeter(e.Model())
}

func allConfigs() map[string]Options {
	return map[string]Options{
		"ShieldOpt":   Defaults(64),
		"ShieldBase":  Base(64),
		"KeyHintOnly": {Buckets: 64, MACHashes: 64, KeyHint: true},
		"MACBktOnly":  {Buckets: 64, MACHashes: 64, MACBucket: true, MACBucketCap: 4},
		"MultiSet":    {Buckets: 64, MACHashes: 8, KeyHint: true, MACBucket: true, MACBucketCap: 4, ExtraHeap: true},
		"TinyMACCap":  {Buckets: 4, MACHashes: 2, KeyHint: true, MACBucket: true, MACBucketCap: 2, ExtraHeap: true},
		"MerkleTree":  {Buckets: 64, MACHashes: 64, KeyHint: true, MACBucket: true, MACBucketCap: 8, ExtraHeap: true, MerkleTree: true},
		"MerkleChain": {Buckets: 32, MACHashes: 32, MerkleTree: true},
	}
}

func TestSetGetAcrossConfigs(t *testing.T) {
	for name, opts := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			s, m := newTestStore(opts)
			const n = 200
			for i := 0; i < n; i++ {
				key := []byte(fmt.Sprintf("key-%04d", i))
				val := []byte(fmt.Sprintf("value-%04d-%s", i, bytes.Repeat([]byte{byte(i)}, i%50)))
				if err := s.Set(m, key, val); err != nil {
					t.Fatalf("Set(%d): %v", i, err)
				}
			}
			if s.Keys() != n {
				t.Fatalf("Keys = %d, want %d", s.Keys(), n)
			}
			for i := 0; i < n; i++ {
				key := []byte(fmt.Sprintf("key-%04d", i))
				want := []byte(fmt.Sprintf("value-%04d-%s", i, bytes.Repeat([]byte{byte(i)}, i%50)))
				got, err := s.Get(m, key)
				if err != nil {
					t.Fatalf("Get(%d): %v", i, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("Get(%d) = %q, want %q", i, got, want)
				}
			}
		})
	}
}

func TestGetMissing(t *testing.T) {
	for name, opts := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			s, m := newTestStore(opts)
			if _, err := s.Get(m, []byte("nope")); !errors.Is(err, ErrNotFound) {
				t.Fatalf("err = %v, want ErrNotFound", err)
			}
			// Populate and miss again.
			_ = s.Set(m, []byte("yes"), []byte("1"))
			if _, err := s.Get(m, []byte("nope")); !errors.Is(err, ErrNotFound) {
				t.Fatalf("err = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestUpdateSameSizeAndResize(t *testing.T) {
	for name, opts := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			s, m := newTestStore(opts)
			key := []byte("k")
			must(t, s.Set(m, key, []byte("aaaa")))
			must(t, s.Set(m, key, []byte("bbbb"))) // in-place
			got, err := s.Get(m, key)
			must(t, err)
			if string(got) != "bbbb" {
				t.Fatalf("in-place update: got %q", got)
			}
			must(t, s.Set(m, key, []byte("cccccccccccc"))) // replace (bigger)
			got, err = s.Get(m, key)
			must(t, err)
			if string(got) != "cccccccccccc" {
				t.Fatalf("grow update: got %q", got)
			}
			must(t, s.Set(m, key, []byte("d"))) // replace (smaller)
			got, err = s.Get(m, key)
			must(t, err)
			if string(got) != "d" {
				t.Fatalf("shrink update: got %q", got)
			}
			if s.Keys() != 1 {
				t.Fatalf("Keys = %d after updates", s.Keys())
			}
		})
	}
}

func TestAppend(t *testing.T) {
	s, m := newTestStore(Defaults(16))
	key := []byte("log")
	must(t, s.Append(m, key, []byte("hello")))
	must(t, s.Append(m, key, []byte(" world")))
	got, err := s.Get(m, key)
	must(t, err)
	if string(got) != "hello world" {
		t.Fatalf("append: got %q", got)
	}
}

func TestIncr(t *testing.T) {
	s, m := newTestStore(Defaults(16))
	key := []byte("ctr")
	v, err := s.Incr(m, key, 5)
	must(t, err)
	if v != 5 {
		t.Fatalf("fresh incr = %d", v)
	}
	v, err = s.Incr(m, key, 7)
	must(t, err)
	if v != 12 {
		t.Fatalf("second incr = %d", v)
	}
	v, err = s.Incr(m, key, -20)
	must(t, err)
	if v != -8 {
		t.Fatalf("negative incr = %d", v)
	}
	must(t, s.Set(m, []byte("s"), []byte("notanumber")))
	if _, err := s.Incr(m, []byte("s"), 1); !errors.Is(err, ErrNotNumeric) {
		t.Fatalf("incr on text: %v", err)
	}
}

func TestDelete(t *testing.T) {
	for name, opts := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			s, m := newTestStore(opts)
			keys := make([][]byte, 60)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("del-%03d", i))
				must(t, s.Set(m, keys[i], []byte(fmt.Sprintf("v%d", i))))
			}
			// Delete every third key.
			for i := 0; i < len(keys); i += 3 {
				must(t, s.Delete(m, keys[i]))
			}
			for i := range keys {
				got, err := s.Get(m, keys[i])
				if i%3 == 0 {
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("deleted key %d still present (err=%v)", i, err)
					}
				} else {
					must(t, err)
					if string(got) != fmt.Sprintf("v%d", i) {
						t.Fatalf("survivor %d corrupted: %q", i, got)
					}
				}
			}
			if err := s.Delete(m, []byte("absent")); !errors.Is(err, ErrNotFound) {
				t.Fatalf("delete absent: %v", err)
			}
			if s.Keys() != 40 {
				t.Fatalf("Keys = %d, want 40", s.Keys())
			}
			must(t, s.VerifyAll(m))
		})
	}
}

func TestVerifyAllCleanStore(t *testing.T) {
	for name, opts := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			s, m := newTestStore(opts)
			for i := 0; i < 100; i++ {
				must(t, s.Set(m, []byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))))
			}
			must(t, s.VerifyAll(m))
		})
	}
}

// --- key hint behaviour (§5.4) ---

func TestKeyHintReducesDecryptions(t *testing.T) {
	// Force long chains: 4 buckets, 200 keys -> ~50 per chain.
	run := func(hint bool) uint64 {
		opts := Defaults(4)
		opts.KeyHint = hint
		s, m := newTestStore(opts)
		for i := 0; i < 200; i++ {
			must(t, s.Set(m, []byte(fmt.Sprintf("k%04d", i)), []byte("v")))
		}
		m.Reset()
		for i := 0; i < 200; i++ {
			_, err := s.Get(m, []byte(fmt.Sprintf("k%04d", i)))
			must(t, err)
		}
		return m.Events(sim.CtrDecrypt)
	}
	with, without := run(true), run(false)
	if without < 10*with {
		t.Fatalf("key hint should cut decryptions ~chain-length-fold: with=%d without=%d", with, without)
	}
	// With hints, decryptions per hit should be very close to 1.
	if with > 200*13/10 {
		t.Fatalf("with hints, %d decryptions for 200 gets (>1.3/op)", with)
	}
}

func TestKeyHintTamperFallsBackToFullSearch(t *testing.T) {
	// §5.4: corrupting hints is an availability attack; the two-step
	// search still finds entries. But note the hint is MACed, so the
	// tamper is *detected* as an integrity failure rather than a miss.
	s, m := newTestStore(Defaults(2))
	key := []byte("target")
	must(t, s.Set(m, key, []byte("payload")))

	// Find the entry in untrusted memory and corrupt its hint byte.
	b := s.bucketOf(m, key)
	head, err := s.readPtr(m, s.headAddr(b))
	must(t, err)
	var hdrBuf [entry.HeaderSize]byte
	s.space.Peek(head, hdrBuf[:])
	s.space.Tamper(head+entry.OffHint, []byte{hdrBuf[entry.OffHint] ^ 0xFF})

	// The two-step search locates the entry despite the wrong hint; the
	// MAC check then reports the tamper.
	if _, err := s.Get(m, key); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tampered hint: err = %v, want ErrIntegrity", err)
	}
}

// --- integrity attacks (§3.3, §4.3) ---

// tamperTarget inserts keys and returns the store, one victim key and the
// address of its entry.
func tamperSetup(t *testing.T, opts Options) (*Store, *sim.Meter, []byte, mem.Addr) {
	t.Helper()
	s, m := newTestStore(opts)
	for i := 0; i < 50; i++ {
		must(t, s.Set(m, []byte(fmt.Sprintf("k%03d", i)), bytes.Repeat([]byte{byte(i)}, 32)))
	}
	key := []byte("k025")
	b := s.bucketOf(m, key)
	res, err := s.search(m, b, key)
	must(t, err)
	if !res.found {
		t.Fatal("victim not found")
	}
	return s, m, key, res.addr
}

// TestTamperBetweenFetchesDetected is the double-fetch attack on entry
// verification: the host flips a value bit before the chain walk reads
// the ciphertext and restores it before the entry MAC is checked. The
// MAC must cover the very bytes the value was decrypted from, so the
// flipped value cannot pass verification.
func TestTamperBetweenFetchesDetected(t *testing.T) {
	for name, opts := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			s, m, key, addr := tamperSetup(t, opts)
			b := s.bucketOf(m, key)
			v, err := s.collectSet(m, b)
			must(t, err)
			must(t, s.verifySet(m, &v))

			at := addr + entry.HeaderSize + mem.Addr(len(key)) + 3
			var orig [1]byte
			s.space.Peek(at, orig[:])
			s.space.Tamper(at, []byte{orig[0] ^ 0x10})
			res, err := s.search(m, b, key)
			must(t, err)
			if !res.found {
				t.Fatal("victim not found after a value-only flip")
			}
			s.space.Tamper(at, orig[:]) // restore before the verify
			if err := s.verifyEntry(m, &v, &res); !errors.Is(err, ErrIntegrity) {
				t.Fatalf("verifyEntry after restore = %v, want ErrIntegrity (value %x)", err, res.val)
			}
		})
	}
}

func TestTamperCiphertextDetected(t *testing.T) {
	for name, opts := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			s, m, key, addr := tamperSetup(t, opts)
			s.space.Tamper(addr+entry.HeaderSize+4, []byte{0xFF})
			if _, err := s.Get(m, key); !errors.Is(err, ErrIntegrity) && !errors.Is(err, ErrNotFound) {
				// Corrupting ciphertext may garble the decrypted key (a
				// miss) — but then set verification must still flag it.
				t.Fatalf("tampered ciphertext: err = %v", err)
			}
			// Full verification always detects it.
			if err := s.VerifyAll(m); err == nil {
				t.Fatal("VerifyAll missed ciphertext tamper")
			}
		})
	}
}

func TestTamperMACFieldDetected(t *testing.T) {
	for name, opts := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			s, m, key, addr := tamperSetup(t, opts)
			s.space.Tamper(addr+entry.OffMAC, []byte{0xEE, 0xBB})
			_, err := s.Get(m, key)
			if opts.MACBucket {
				// The sidecar MAC is authoritative on the found path, so
				// the entry is still served correctly...
				must(t, err)
				// ...but the full audit catches the stale field.
				if err := s.VerifyAll(m); !errors.Is(err, ErrIntegrity) {
					t.Fatalf("VerifyAll missed MAC field tamper: %v", err)
				}
			} else if !errors.Is(err, ErrIntegrity) {
				t.Fatalf("tampered MAC: err = %v, want ErrIntegrity", err)
			}
		})
	}
}

func TestTamperIVDetected(t *testing.T) {
	for name, opts := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			s, m, key, addr := tamperSetup(t, opts)
			s.space.Tamper(addr+entry.OffIV, []byte{0x99})
			if _, err := s.Get(m, key); err == nil {
				t.Fatal("tampered IV went undetected")
			}
		})
	}
}

func TestUnlinkEntryDetected(t *testing.T) {
	// Host unlinks an entry from its chain (silent deletion). The set
	// hash covers all MACs, so the get must fail integrity rather than
	// report a clean miss.
	for _, macBucket := range []bool{true, false} {
		t.Run(fmt.Sprintf("macBucket=%v", macBucket), func(t *testing.T) {
			opts := Defaults(2)
			opts.MACBucket = macBucket
			s, m := newTestStore(opts)
			for i := 0; i < 20; i++ {
				must(t, s.Set(m, []byte(fmt.Sprintf("k%02d", i)), []byte("v")))
			}
			key := []byte("k07")
			b := s.bucketOf(m, key)
			res, err := s.search(m, b, key)
			must(t, err)
			// Rewire the predecessor pointer past the victim.
			var next [8]byte
			putLeU64t(next[:], uint64(res.hdr.Next))
			s.space.Tamper(res.prevLink, next[:])

			if _, err := s.Get(m, key); !errors.Is(err, ErrIntegrity) {
				t.Fatalf("silent unlink: err = %v, want ErrIntegrity", err)
			}
		})
	}
}

func TestReplayOldEntryDetected(t *testing.T) {
	// Host snapshots an entry (and its sidecar MAC), lets the enclave
	// update it, then restores the old bytes — the classic replay the
	// flattened Merkle scheme must stop.
	for name, opts := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			s, m := newTestStore(opts)
			key := []byte("account")
			must(t, s.Set(m, key, []byte("balance=100")))

			b := s.bucketOf(m, key)
			res, err := s.search(m, b, key)
			must(t, err)
			old := make([]byte, res.hdr.TotalLen())
			s.space.Peek(res.addr, old)
			var oldSidecar []byte
			if opts.MACBucket {
				a, err := s.sidecarSlotAddr(m, b, int(res.hdr.Slot))
				must(t, err)
				oldSidecar = make([]byte, entry.MACSize)
				s.space.Peek(a, oldSidecar)
			}

			must(t, s.Set(m, key, []byte("balance=000"))) // same size: in place

			// Replay both the entry and (if present) the sidecar MAC.
			s.space.Tamper(res.addr, old)
			if opts.MACBucket {
				a, _ := s.sidecarSlotAddr(m, b, int(res.hdr.Slot))
				s.space.Tamper(a, oldSidecar)
			}

			if _, err := s.Get(m, key); !errors.Is(err, ErrIntegrity) {
				t.Fatalf("replay attack: err = %v, want ErrIntegrity", err)
			}
		})
	}
}

func TestCrossBucketSwapDetected(t *testing.T) {
	// Swapping two buckets' head pointers preserves each entry's own MAC
	// but changes the set composition — detected by the set hashes as
	// long as the buckets are covered by... the same slot? Use MACHashes
	// == Buckets so each bucket has its own hash.
	opts := Defaults(8)
	s, m := newTestStore(opts)
	for i := 0; i < 64; i++ {
		must(t, s.Set(m, []byte(fmt.Sprintf("k%02d", i)), []byte("v")))
	}
	var h0, h1 [8]byte
	s.space.Peek(s.headAddr(0), h0[:])
	s.space.Peek(s.headAddr(1), h1[:])
	s.space.Tamper(s.headAddr(0), h1[:])
	s.space.Tamper(s.headAddr(1), h0[:])
	if err := s.VerifyAll(m); err == nil {
		t.Fatal("bucket swap went undetected")
	}
}

func TestEnclaveAliasingPointerRejected(t *testing.T) {
	s, m := newTestStore(Defaults(2))
	must(t, s.Set(m, []byte("a"), []byte("1")))
	key := []byte("a")
	b := s.bucketOf(m, key)
	// Point the bucket head into the enclave range (§7 attack).
	var evil [8]byte
	putLeU64t(evil[:], uint64(mem.EnclaveBase+0x1000))
	s.space.Tamper(s.headAddr(b), evil[:])
	if _, err := s.Get(m, key); !errors.Is(err, ErrCorruptPointer) {
		t.Fatalf("enclave-aliasing pointer: err = %v, want ErrCorruptPointer", err)
	}
}

func TestConfidentialityOfUntrustedMemory(t *testing.T) {
	// Neither keys nor values may appear in plaintext anywhere in the
	// untrusted region.
	s, m := newTestStore(Defaults(8))
	secretKey := []byte("supersecretkey01")
	secretVal := []byte("topsecret-value-content-42")
	must(t, s.Set(m, secretKey, secretVal))

	used := s.space.UsedBytes(mem.Untrusted)
	dump := make([]byte, used)
	s.space.Peek(mem.UntrustedBase, dump)
	if bytes.Contains(dump, secretKey) {
		t.Fatal("plaintext key leaked to untrusted memory")
	}
	if bytes.Contains(dump, secretVal) {
		t.Fatal("plaintext value leaked to untrusted memory")
	}
}

// --- allocator integration ---

func TestExtraHeapVersusOutsideOCalls(t *testing.T) {
	run := func(extra bool) uint64 {
		opts := Defaults(16)
		opts.ExtraHeap = extra
		opts.HeapChunk = 1 << 20
		s, m := newTestStore(opts)
		for i := 0; i < 300; i++ {
			must(t, s.Set(m, []byte(fmt.Sprintf("k%03d", i)), []byte("valuevalue")))
		}
		return m.Events(sim.CtrOCall)
	}
	with, without := run(true), run(false)
	if with*10 > without {
		t.Fatalf("extra heap OCALLs (%d) should be <10%% of naive (%d)", with, without)
	}
}

// --- multi-bucket sets ---

func TestMultiBucketSetMaintenance(t *testing.T) {
	opts := Options{Buckets: 16, MACHashes: 4, KeyHint: true, MACBucket: true, MACBucketCap: 3, ExtraHeap: true}
	s, m := newTestStore(opts)
	rng := rand.New(rand.NewSource(5))
	live := map[string]string{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%03d", rng.Intn(120))
		switch rng.Intn(3) {
		case 0, 1:
			v := fmt.Sprintf("v%06d", i)
			must(t, s.Set(m, []byte(k), []byte(v)))
			live[k] = v
		case 2:
			err := s.Delete(m, []byte(k))
			if _, ok := live[k]; ok {
				must(t, err)
				delete(live, k)
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatalf("delete absent: %v", err)
			}
		}
	}
	for k, v := range live {
		got, err := s.Get(m, []byte(k))
		must(t, err)
		if string(got) != v {
			t.Fatalf("key %s: got %q want %q", k, got, v)
		}
	}
	if s.Keys() != len(live) {
		t.Fatalf("Keys = %d, want %d", s.Keys(), len(live))
	}
	must(t, s.VerifyAll(m))
}

// --- model-based property test ---

func TestModelBasedRandomOps(t *testing.T) {
	for name, opts := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			s, m := newTestStore(opts)
			ref := map[string][]byte{}
			rng := rand.New(rand.NewSource(99))
			for step := 0; step < 2000; step++ {
				k := fmt.Sprintf("key%02d", rng.Intn(40))
				switch rng.Intn(10) {
				case 0, 1, 2: // set
					v := make([]byte, rng.Intn(100))
					rng.Read(v)
					must(t, s.Set(m, []byte(k), v))
					ref[k] = v
				case 3: // delete
					err := s.Delete(m, []byte(k))
					if _, ok := ref[k]; ok {
						must(t, err)
						delete(ref, k)
					} else if !errors.Is(err, ErrNotFound) {
						t.Fatal(err)
					}
				case 4: // append
					suf := []byte("++")
					must(t, s.Append(m, []byte(k), suf))
					ref[k] = append(ref[k], suf...)
				default: // get
					got, err := s.Get(m, []byte(k))
					want, ok := ref[k]
					if !ok {
						if !errors.Is(err, ErrNotFound) {
							t.Fatalf("step %d: get absent %s: %v", step, k, err)
						}
						continue
					}
					must(t, err)
					if !bytes.Equal(got, want) {
						t.Fatalf("step %d: key %s mismatch", step, k)
					}
				}
				if s.Keys() != len(ref) {
					t.Fatalf("step %d: Keys=%d ref=%d", step, s.Keys(), len(ref))
				}
			}
			must(t, s.VerifyAll(m))
		})
	}
}

// --- persistence hooks ---

func TestExportRestoreRoundTrip(t *testing.T) {
	for name, opts := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			s, m := newTestStore(opts)
			want := map[string]string{}
			for i := 0; i < 120; i++ {
				k, v := fmt.Sprintf("k%03d", i), fmt.Sprintf("val-%04d", i*7)
				must(t, s.Set(m, []byte(k), []byte(v)))
				want[k] = v
			}

			// Snapshot: raw buckets + MAC hashes + keys.
			type bucketDump struct {
				b       int
				entries [][]byte
			}
			var dumps []bucketDump
			must(t, s.ForEachBucketRaw(func(b int, entries [][]byte) error {
				cp := make([][]byte, len(entries))
				for i := range entries {
					cp[i] = append([]byte(nil), entries[i]...)
				}
				dumps = append(dumps, bucketDump{b, cp})
				return nil
			}))
			hashes := s.ExportMACHashes()
			keys := s.Cipher().ExportKeys()

			// Rebuild into a fresh store sharing the enclave.
			s2 := New(s.Enclave(), entry.NewCipherFromKeys(s.Enclave(), keys), opts)
			m2 := sim.NewMeter(s.Enclave().Model())
			for _, d := range dumps {
				must(t, s2.RestoreBucket(m2, d.b, d.entries))
			}
			must(t, s2.ImportMACHashes(m2, hashes))
			must(t, s2.VerifyAll(m2))

			if s2.Keys() != len(want) {
				t.Fatalf("restored Keys = %d, want %d", s2.Keys(), len(want))
			}
			for k, v := range want {
				got, err := s2.Get(m2, []byte(k))
				must(t, err)
				if string(got) != v {
					t.Fatalf("restored %s = %q, want %q", k, got, v)
				}
			}
		})
	}
}

func TestRestoreTamperedSnapshotDetected(t *testing.T) {
	opts := Defaults(8)
	s, m := newTestStore(opts)
	for i := 0; i < 40; i++ {
		must(t, s.Set(m, []byte(fmt.Sprintf("k%02d", i)), []byte("vvvv")))
	}
	var dumps [][][]byte
	var bIDs []int
	must(t, s.ForEachBucketRaw(func(b int, entries [][]byte) error {
		cp := make([][]byte, len(entries))
		for i := range entries {
			cp[i] = append([]byte(nil), entries[i]...)
		}
		dumps = append(dumps, cp)
		bIDs = append(bIDs, b)
		return nil
	}))
	hashes := s.ExportMACHashes()

	// Tamper one snapshot entry's ciphertext.
	dumps[0][0][entry.HeaderSize] ^= 0x55

	s2 := New(s.Enclave(), entry.NewCipherFromKeys(s.Enclave(), s.Cipher().ExportKeys()), opts)
	m2 := sim.NewMeter(s.Enclave().Model())
	for i := range dumps {
		must(t, s2.RestoreBucket(m2, bIDs[i], dumps[i]))
	}
	must(t, s2.ImportMACHashes(m2, hashes))
	if err := s2.VerifyAll(m2); err == nil {
		t.Fatal("tampered snapshot restored without detection")
	}
}

func TestForEachDecrypt(t *testing.T) {
	s, m := newTestStore(Defaults(8))
	want := map[string]string{"a": "1", "bb": "22", "ccc": "333"}
	for k, v := range want {
		must(t, s.Set(m, []byte(k), []byte(v)))
	}
	got := map[string]string{}
	must(t, s.ForEachDecrypt(m, func(k, v []byte) error {
		got[string(k)] = string(v)
		return nil
	}))
	if len(got) != len(want) {
		t.Fatalf("iterated %d pairs, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("pair %s: %q != %q", k, got[k], v)
		}
	}
}

// --- options sanity ---

func TestOptionDefaultsAndClamps(t *testing.T) {
	e := testEnclave(8 << 20)
	s := New(e, nil, Options{Buckets: 8, MACHashes: 999}) // clamp to buckets
	if s.Options().MACHashes != 8 {
		t.Fatalf("MACHashes not clamped: %d", s.Options().MACHashes)
	}
	if s.Options().MACBucketCap != 30 {
		t.Fatalf("MACBucketCap default: %d", s.Options().MACBucketCap)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero buckets must panic")
		}
	}()
	New(e, nil, Options{})
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func putLeU64t(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
