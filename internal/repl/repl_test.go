// Applier semantics: in-order apply, gap detection and resend, duplicate
// skipping without double-apply, epoch fencing, reset (bootstrap) frames,
// and promote/state persistence. The sender side here is a hand-driven
// chain standing in for a Shipper, so each protocol transition can be
// exercised exactly.
package repl

import (
	"fmt"
	"strconv"
	"testing"

	"shieldstore/internal/core"
	"shieldstore/internal/fault"
	"shieldstore/internal/proto"
	"shieldstore/internal/sgx"
	"shieldstore/internal/sim"
)

// testSender hand-encodes a shipper-side frame stream.
type testSender struct {
	e     *sgx.Enclave
	m     *sim.Meter
	chain *chainState
	seq   uint64
	epoch uint64
}

func newTestSender(seed uint64) *testSender {
	e := testEnclave(seed)
	return &testSender{e: e, m: sim.NewMeter(e.Model()), chain: newChain(e), epoch: 1}
}

func (s *testSender) frame(kind byte, key, val string, delta int64) []byte {
	s.seq++
	return encodeFrame(s.m, s.e, s.chain, s.seq, s.epoch, 0, appendRecord(nil, kind, []byte(key), []byte(val), delta))
}

// reset restarts the chain at genesis, as a bootstrapping shipper does.
func (s *testSender) reset() []byte {
	s.chain.reset()
	s.seq++
	return encodeFrame(s.m, s.e, s.chain, s.seq, s.epoch, 0, appendRecord(nil, FrameReset, nil, nil, 0))
}

func concat(frames ...[]byte) []byte {
	var out []byte
	for _, f := range frames {
		out = append(out, f...)
	}
	return out
}

// newTestApplier stands up a started 2-partition replica pool plus its
// applier, sharing sealing identity with seed.
func newTestApplier(t *testing.T, seed uint64, dir string) (*core.Partitioned, *Applier, *sim.Meter) {
	t.Helper()
	return newTestApplierOpts(t, seed, dir, core.Defaults(64))
}

// newTestApplierOpts is newTestApplier with explicit store options.
func newTestApplierOpts(t *testing.T, seed uint64, dir string, opts core.Options) (*core.Partitioned, *Applier, *sim.Meter) {
	t.Helper()
	e := testEnclave(seed)
	p := core.NewPartitioned(e, 2, opts)
	a, err := NewApplier(p, ApplierOptions{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	t.Cleanup(p.Stop)
	return p, a, sim.NewMeter(e.Model())
}

func mustGet(t *testing.T, p *core.Partitioned, m *sim.Meter, key, want string) {
	t.Helper()
	v, err := p.Get(m, []byte(key))
	if err != nil {
		t.Fatalf("Get %s: %v", key, err)
	}
	if string(v) != want {
		t.Fatalf("Get %s = %q, want %q", key, v, want)
	}
}

func TestApplierAppliesStream(t *testing.T) {
	s := newTestSender(9)
	p, a, m := newTestApplier(t, 9, "")

	wm, st := a.Apply(m, concat(
		s.frame(FrameSet, "a", "1", 0),
		s.frame(FrameSet, "b", "2", 0),
		s.frame(FrameAppend, "b", "2", 0),
		s.frame(FrameIncr, "n", "", 5),
		s.frame(FrameDelete, "a", "", 0),
	))
	if st != proto.StatusOK || wm != 5 {
		t.Fatalf("Apply = (%d, %d), want (5, OK)", wm, st)
	}
	mustGet(t, p, m, "b", "22")
	mustGet(t, p, m, "n", "5")
	if _, err := p.Get(m, []byte("a")); err != core.ErrNotFound {
		t.Fatalf("deleted key: %v", err)
	}
	if got := m.Events(sim.CtrReplApplied); got != 5 {
		t.Fatalf("CtrReplApplied = %d, want 5", got)
	}
}

func TestApplierGapThenResend(t *testing.T) {
	s := newTestSender(9)
	p, a, m := newTestApplier(t, 9, "")

	f1 := s.frame(FrameSet, "k1", "v1", 0)
	f2 := s.frame(FrameSet, "k2", "v2", 0)
	f3 := s.frame(FrameIncr, "n", "", 1)

	// Drop f2 on the floor: the prefix applies, the rest must NOT.
	wm, st := a.Apply(m, concat(f1, f3))
	if st != proto.StatusReplGap || wm != 1 {
		t.Fatalf("gapped Apply = (%d, %d), want (1, ReplGap)", wm, st)
	}
	if _, err := p.Get(m, []byte("n")); err != core.ErrNotFound {
		t.Fatal("frame after the gap was applied out of order")
	}
	// Resend from watermark+1, in order: everything lands exactly once.
	wm, st = a.Apply(m, concat(f2, f3))
	if st != proto.StatusOK || wm != 3 {
		t.Fatalf("resend Apply = (%d, %d), want (3, OK)", wm, st)
	}
	mustGet(t, p, m, "k2", "v2")
	mustGet(t, p, m, "n", "1")
}

func TestApplierSkipsDuplicatesWithoutReapply(t *testing.T) {
	s := newTestSender(9)
	p, a, m := newTestApplier(t, 9, "")

	f1 := s.frame(FrameSet, "n", "5", 0)
	f2 := s.frame(FrameIncr, "n", "", 3)
	if _, st := a.Apply(m, concat(f1, f2)); st != proto.StatusOK {
		t.Fatalf("first Apply status %d", st)
	}
	// A retransmission overlapping the applied prefix (classic after a
	// partial ack loss): the duplicate Incr must not re-apply.
	f3 := s.frame(FrameSet, "done", "yes", 0)
	wm, st := a.Apply(m, concat(f1, f2, f3))
	if st != proto.StatusOK || wm != 3 {
		t.Fatalf("resend Apply = (%d, %d), want (3, OK)", wm, st)
	}
	mustGet(t, p, m, "n", "8")
	mustGet(t, p, m, "done", "yes")
}

func TestApplierRejectsReorderedAndTampered(t *testing.T) {
	s := newTestSender(9)
	p, a, m := newTestApplier(t, 9, "")

	f1 := s.frame(FrameSet, "x", "1", 0)
	f2 := s.frame(FrameSet, "x", "2", 0)

	// Reordered: the later frame first reads as a gap (chain can't
	// continue), and nothing of it applies.
	wm, st := a.Apply(m, concat(f2, f1))
	if st != proto.StatusReplGap || wm != 0 {
		t.Fatalf("reordered Apply = (%d, %d), want (0, ReplGap)", wm, st)
	}
	if _, err := p.Get(m, []byte("x")); err != core.ErrNotFound {
		t.Fatal("reordered frame was applied")
	}
	// In order they land fine.
	if _, st := a.Apply(m, concat(f1, f2)); st != proto.StatusOK {
		t.Fatalf("ordered Apply status %d", st)
	}
	mustGet(t, p, m, "x", "2")

	// Tampered: any byte flip in a frame is a chain break -> StatusError
	// (the stream is dead; only a bootstrap recovers it).
	f3 := s.frame(FrameSet, "x", "3", 0)
	mut := append([]byte(nil), f3...)
	mut[len(mut)/2] ^= 1
	if wm, st := a.Apply(m, mut); st != proto.StatusError || wm != 2 {
		t.Fatalf("tampered Apply = (%d, %d), want (2, Error)", wm, st)
	}
	mustGet(t, p, m, "x", "2")
}

func TestApplierEpochFencing(t *testing.T) {
	s := newTestSender(9)
	_, a, m := newTestApplier(t, 9, "")

	if a.Writable() {
		t.Fatal("replica writable before promotion")
	}
	if _, st := a.Apply(m, s.frame(FrameSet, "pre", "1", 0)); st != proto.StatusOK {
		t.Fatalf("pre-promotion Apply status %d", st)
	}

	// Promote must strictly advance the epoch.
	if ep, st := a.Promote(1); st != proto.StatusError || ep != 1 {
		t.Fatalf("Promote(1) = (%d, %d), want refusal at epoch 1", ep, st)
	}
	if ep, st := a.Promote(2); st != proto.StatusOK || ep != 2 {
		t.Fatalf("Promote(2) = (%d, %d)", ep, st)
	}
	if ep, st := a.Promote(2); st != proto.StatusOK || ep != 2 {
		t.Fatalf("idempotent Promote(2) = (%d, %d)", ep, st)
	}
	if ep, st := a.Promote(1); st != proto.StatusError || ep != 2 {
		t.Fatalf("stale Promote(1) = (%d, %d)", ep, st)
	}
	if !a.Writable() {
		t.Fatal("promoted replica not writable")
	}
	if got := m.Events(sim.CtrReplFailover) + a.Meter().Events(sim.CtrReplFailover); got != 1 {
		t.Fatalf("CtrReplFailover = %d, want 1", got)
	}

	// The old primary's stream (epoch 1) is now fenced out.
	wm := a.Watermark()
	gotWM, st := a.Apply(m, s.frame(FrameSet, "post", "2", 0))
	if st != proto.StatusFenced || gotWM != wm {
		t.Fatalf("stale-epoch Apply = (%d, %d), want (%d, Fenced)", gotWM, st, wm)
	}
}

func TestApplierResetWipesAndResyncs(t *testing.T) {
	s := newTestSender(9)
	p, a, m := newTestApplier(t, 9, "")

	if _, st := a.Apply(m, concat(
		s.frame(FrameSet, "old1", "x", 0),
		s.frame(FrameSet, "old2", "y", 0),
	)); st != proto.StatusOK {
		t.Fatal("seed stream failed")
	}

	// A restarted primary's bootstrap: fresh chain, sequence jumped past
	// the replica's horizon (the shipper learns the horizon from the
	// watermark guard), genesis reset, then the snapshot.
	s2 := newTestSender(9)
	s2.seq = a.Watermark() + 3 // any jump forward is legal
	wm, st := a.Apply(m, concat(
		s2.reset(),
		s2.frame(FrameSet, "new1", "n1", 0),
	))
	if st != proto.StatusOK || wm != s2.seq {
		t.Fatalf("bootstrap Apply = (%d, %d), want (%d, OK)", wm, st, s2.seq)
	}
	if _, err := p.Get(m, []byte("old1")); err != core.ErrNotFound {
		t.Fatal("reset did not wipe old state")
	}
	mustGet(t, p, m, "new1", "n1")

	// A reset below the horizon is a replay: dup-skipped, never applied.
	s3 := newTestSender(9)
	reset := s3.reset() // seq 1 < watermark
	wmBefore := a.Watermark()
	wm, st = a.Apply(m, reset)
	if st != proto.StatusOK || wm != wmBefore {
		t.Fatalf("replayed reset = (%d, %d), want (%d, OK)", wm, st, wmBefore)
	}
	mustGet(t, p, m, "new1", "n1")
}

func TestApplierPromotionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, a, _ := newTestApplier(t, 9, dir)
	if ep, st := a.Promote(4); st != proto.StatusOK || ep != 4 {
		t.Fatalf("Promote(4) = (%d, %d)", ep, st)
	}

	// A new applier over the same state dir must wake up fenced at epoch
	// 4 — the one fact that may never be forgotten across a restart.
	_, a2, m2 := newTestApplier(t, 9, dir)
	if a2.Epoch() != 4 {
		t.Fatalf("restarted epoch = %d, want 4", a2.Epoch())
	}
	s := newTestSender(9) // epoch 1 stream: the fenced old primary
	if _, st := a2.Apply(m2, s.frame(FrameSet, "k", "v", 0)); st != proto.StatusFenced {
		t.Fatalf("stale stream after restart: status %d, want Fenced", st)
	}
}

// TestApplierBatchKeepsPerKeyOrder replays order-sensitive runs
// (Append, Incr, Set resets, Deletes) interleaved over keys on both
// replica partitions, in payloads that span several apply batches: every
// key must end exactly as a strictly sequential replay leaves it.
func TestApplierBatchKeepsPerKeyOrder(t *testing.T) {
	s := newTestSender(9)
	p, a, m := newTestApplier(t, 9, "")

	var keys []string
	seen := map[int]int{}
	for i := 0; len(keys) < 8; i++ {
		k := fmt.Sprintf("k%d", i)
		if part := p.Route(m, []byte(k)); seen[part] < 4 {
			seen[part]++
			keys = append(keys, k)
		}
	}
	want := map[string]string{}
	var frames [][]byte
	for i := 0; i < 2*applyChunk+37; i++ {
		k := keys[i%len(keys)]
		text, ctr := "s"+k, "n"+k
		switch i % 11 {
		case 3:
			frames = append(frames, s.frame(FrameSet, text, "<", 0))
			want[text] = "<"
		case 7:
			frames = append(frames, s.frame(FrameDelete, text, "", 0))
			delete(want, text)
		case 9:
			frames = append(frames, s.frame(FrameSet, ctr, "1000", 0))
			want[ctr] = "1000"
		case 0, 2, 5:
			n, _ := strconv.ParseInt(want[ctr], 10, 64)
			frames = append(frames, s.frame(FrameIncr, ctr, "", int64(i)))
			want[ctr] = strconv.FormatInt(n+int64(i), 10)
		default:
			d := strconv.Itoa(i % 10)
			frames = append(frames, s.frame(FrameAppend, text, d, 0))
			want[text] += d
		}
	}
	split := applyChunk + 11
	if wm, st := a.Apply(m, concat(frames[:split]...)); st != proto.StatusOK || wm != uint64(split) {
		t.Fatalf("first Apply = (%d, %d), want (%d, OK)", wm, st, split)
	}
	if wm, st := a.Apply(m, concat(frames...)); st != proto.StatusOK || wm != uint64(len(frames)) {
		t.Fatalf("second Apply = (%d, %d), want (%d, OK)", wm, st, len(frames))
	}
	for k, v := range want {
		mustGet(t, p, m, k, v)
	}
	if got := int(p.Keys()); got != len(want) {
		t.Fatalf("replica holds %d keys, want %d", got, len(want))
	}
	if got := m.Events(sim.CtrReplApplied); got != uint64(len(frames)) {
		t.Fatalf("CtrReplApplied = %d, want %d", got, len(frames))
	}
}

// TestApplierRefusalKeepsPrefix quarantines one replica partition so it
// refuses a mutation in the middle of a payload whose later frames land
// on the other partition. The replica may not keep that non-prefix
// state: it wipes, reports the watermark before the refused frame, and
// answers StatusError to everything but the bootstrap reset.
func TestApplierRefusalKeepsPrefix(t *testing.T) {
	opts := core.Defaults(64)
	opts.Quarantine = true
	s := newTestSender(9)
	p, a, m := newTestApplierOpts(t, 9, "", opts)

	keys := map[int][]string{}
	for i := 0; len(keys[0]) < 2 || len(keys[1]) < 1; i++ {
		k := fmt.Sprintf("q%d", i)
		part := p.Route(m, []byte(k))
		keys[part] = append(keys[part], k)
	}
	victim := keys[1][0]
	if wm, st := a.Apply(m, s.frame(FrameSet, victim, "v1", 0)); st != proto.StatusOK || wm != 1 {
		t.Fatalf("seed Apply = (%d, %d)", wm, st)
	}
	// The host splices the victim's bucket chain: the next mutation there
	// fails verification and latches partition 1's quarantine.
	plane := fault.New(1)
	plane.Arm(fault.PointChainSplice, fault.Spec{})
	p.RunCtl(1, func(st *core.WorkerState) { st.Store.SetFaultPlane(plane) })

	f2 := s.frame(FrameSet, keys[0][0], "a", 0)
	f3 := s.frame(FrameSet, victim, "v2", 0)
	f4 := s.frame(FrameSet, keys[0][1], "b", 0)
	wm, st := a.Apply(m, concat(f2, f3, f4))
	if st != proto.StatusError || wm != 2 {
		t.Fatalf("refused Apply = (%d, %d), want (2, Error)", wm, st)
	}
	if plane.TotalFired() == 0 {
		t.Fatal("the splice never fired")
	}
	if n := p.Keys(); n != 0 {
		t.Fatalf("replica kept %d keys of a non-prefix state, want a wipe", n)
	}
	// Poisoned: a continuation, a resend of the applied prefix, anything
	// but a reset is refused.
	f5 := s.frame(FrameSet, keys[0][0], "c", 0)
	for name, payload := range map[string][]byte{"continuation": f5, "resend": concat(f2, f3, f4, f5)} {
		if wm, st := a.Apply(m, payload); st != proto.StatusError || wm != 2 {
			t.Fatalf("%s after refusal = (%d, %d), want (2, Error)", name, wm, st)
		}
	}
	if n := p.Keys(); n != 0 {
		t.Fatalf("poisoned replica applied frames: %d keys", n)
	}
	// The shipper's bootstrap heals it.
	wm, st = a.Apply(m, concat(s.reset(), s.frame(FrameSet, victim, "snap", 0)))
	if st != proto.StatusOK || wm != s.seq {
		t.Fatalf("bootstrap Apply = (%d, %d), want (%d, OK)", wm, st, s.seq)
	}
	mustGet(t, p, m, victim, "snap")
	if wm, st := a.Apply(m, s.frame(FrameAppend, victim, "+", 0)); st != proto.StatusOK || wm != s.seq {
		t.Fatalf("post-bootstrap Apply = (%d, %d)", wm, st)
	}
	mustGet(t, p, m, victim, "snap+")
}
