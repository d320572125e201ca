// Group-commit semantics of the Shipper over a real wire, with a gate on
// the replica's side of the link: a flush parked on the wire must not
// block other partitions' enqueues, the partitions' commits share
// flushes, no commit returns before the replica acked its frames, and
// Close, MigrateTo and stream resets all work with a flush in flight.
package repl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shieldstore/internal/client"
	"shieldstore/internal/core"
	"shieldstore/internal/sim"
)

// linkGate wraps a replica's replicate hook: it counts round trips,
// delays each by delay, and while armed parks the next one until
// released.
type linkGate struct {
	delay time.Duration // set before the replica starts
	rpcs  atomic.Int64

	mu      sync.Mutex
	hold    chan struct{}
	entered chan struct{}
}

func (g *linkGate) wrap(next replicateFunc) replicateFunc {
	return func(m *sim.Meter, payload []byte) (uint64, uint8) {
		g.rpcs.Add(1)
		g.mu.Lock()
		hold, entered := g.hold, g.entered
		g.hold, g.entered = nil, nil
		g.mu.Unlock()
		if hold != nil {
			close(entered)
			<-hold
		}
		if g.delay > 0 {
			time.Sleep(g.delay)
		}
		return next(m, payload)
	}
}

// arm parks the next round trip. entered closes once it is parked;
// release (idempotent, also run at cleanup) lets it through.
func (g *linkGate) arm(t *testing.T) (entered <-chan struct{}, release func()) {
	hold, ent := make(chan struct{}), make(chan struct{})
	g.mu.Lock()
	g.hold, g.entered = hold, ent
	g.mu.Unlock()
	var once sync.Once
	release = func() { once.Do(func() { close(hold) }) }
	t.Cleanup(release)
	return ent, release
}

func waitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// keyPerPart returns one key routed to each partition of p.
func keyPerPart(p *core.Partitioned, prefix string) [][]byte {
	m := sim.NewMeter(p.Enclave().Model())
	keys := make([][]byte, p.Parts())
	for i, found := 0, 0; found < len(keys); i++ {
		k := []byte(fmt.Sprintf("%s%d", prefix, i))
		if part := p.Route(m, k); keys[part] == nil {
			keys[part] = k
			found++
		}
	}
	return keys
}

// startGatedPair is a replica behind a link gate plus a parts-partition
// primary shipping to it, with the link dialed and in sync.
func startGatedPair(t *testing.T, seed uint64, parts int) (*linkGate, *replicaNode, *core.Partitioned, *Shipper, *sim.Meter) {
	t.Helper()
	g := &linkGate{}
	rep := startReplicaNodeHooked(t, seed, g.wrap)
	p, s, m := startPrimaryPoolN(t, seed, rep.addr, nil, parts)
	if err := p.Set(m, []byte("warm"), []byte("up")); err != nil {
		t.Fatal(err)
	}
	waitSynced(t, s, rep)
	g.rpcs.Store(0)
	return g, rep, p, s, m
}

// TestGroupCommitFlushOffTheLock parks one partition's flush on the wire
// and bursts a write into every partition of a 4-partition primary: all
// four frames must enqueue while the flush is parked, no write may be
// acknowledged before the replica acked it, and the whole burst must
// cost at most two Replicate round trips (the parked one, and one
// carrying everything that queued behind it).
func TestGroupCommitFlushOffTheLock(t *testing.T) {
	g, rep, p, s, _ := startGatedPair(t, 61, 4)
	_, base := s.Watermark()
	entered, release := g.arm(t)

	keys := keyPerPart(p, "burst")
	var acked atomic.Int64
	errs := make(chan error, len(keys))
	for _, k := range keys {
		go func(k []byte) {
			err := p.Set(sim.NewMeter(p.Enclave().Model()), k, append([]byte("v-"), k...))
			acked.Add(1)
			errs <- err
		}(k)
	}
	waitClosed(t, entered, "a flush to reach the replica")

	// Poll from a goroutine: were enqueue (or Watermark) stuck behind the
	// parked flush, the poll itself would block.
	enqueued := make(chan struct{})
	go func() {
		for {
			if _, assigned := s.Watermark(); assigned >= base+uint64(len(keys)) {
				close(enqueued)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	select {
	case <-enqueued:
	case <-time.After(5 * time.Second):
		release()
		t.Fatal("partitions could not enqueue while a flush was on the wire")
	}
	time.Sleep(20 * time.Millisecond)
	if n := acked.Load(); n != 0 {
		release()
		t.Fatalf("%d writes acknowledged while their frames were still unacked", n)
	}
	release()
	for range keys {
		if err := <-errs; err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	if n := g.rpcs.Load(); n > 2 {
		t.Fatalf("4-partition burst took %d Replicate round trips, want <= 2", n)
	}
	m := sim.NewMeter(rep.p.Enclave().Model())
	for _, k := range keys {
		mustGet(t, rep.p, m, string(k), "v-"+string(k))
	}
}

// TestGroupCommitAckImpliesReplicaAck hammers every partition at once
// over a slow link and checks, after each acknowledged write, that the
// replica already holds it — whichever partition's flush carried it.
func TestGroupCommitAckImpliesReplicaAck(t *testing.T) {
	g := &linkGate{delay: 200 * time.Microsecond}
	rep := startReplicaNodeHooked(t, 62, g.wrap)
	p, s, _ := startPrimaryPoolN(t, 62, rep.addr, nil, 4)

	const rounds = 40
	keys := keyPerPart(p, "ack")
	var wg sync.WaitGroup
	errs := make(chan error, len(keys))
	for _, k := range keys {
		wg.Add(1)
		go func(k []byte) {
			defer wg.Done()
			pm := sim.NewMeter(p.Enclave().Model())
			rm := sim.NewMeter(rep.p.Enclave().Model())
			for i := 0; i < rounds; i++ {
				v := fmt.Sprintf("%s-%d", k, i)
				if err := p.Set(pm, k, []byte(v)); err != nil {
					errs <- fmt.Errorf("Set %s: %v", k, err)
					return
				}
				got, err := rep.p.Get(rm, k)
				if err != nil || string(got) != v {
					errs <- fmt.Errorf("acked %s=%q but replica holds %q (%v)", k, v, got, err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	acked, assigned := s.Watermark()
	if acked != assigned {
		t.Fatalf("acked %d of %d frames after every write returned", acked, assigned)
	}
	t.Logf("%d writes, %d Replicate round trips", rounds*len(keys), g.rpcs.Load())
}

// TestGroupCommitMigrateDuringFlush retargets the stream while a flush
// to the old replica is parked: MigrateTo waits for it, and the new
// replica then bootstraps to the complete history.
func TestGroupCommitMigrateDuringFlush(t *testing.T) {
	g, _, p, s, m := startGatedPair(t, 63, 2)
	expect := loadKeys(t, p, m, "g", 30)
	expect["warm"] = "up"

	entered, release := g.arm(t)
	setDone := make(chan error, 1)
	go func() { setDone <- p.Set(sim.NewMeter(p.Enclave().Model()), []byte("inflight"), []byte("x")) }()
	waitClosed(t, entered, "a flush to reach the replica")

	spare := startReplicaNode(t, 63)
	migrated := make(chan struct{})
	go func() {
		s.MigrateTo(spare.addr, client.Options{})
		close(migrated)
	}()
	select {
	case <-migrated:
		t.Fatal("MigrateTo dropped the link under an in-flight flush")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	waitClosed(t, migrated, "MigrateTo")
	if err := <-setDone; err != nil {
		t.Fatalf("in-flight Set: %v", err)
	}
	expect["inflight"] = "x"
	for k, v := range loadKeys(t, p, m, "h", 20) {
		expect[k] = v
	}
	waitSynced(t, s, spare)
	verifyReplica(t, spare, expect)
}

// TestGroupCommitResetDuringFlush schedules a bootstrap while a payload
// is on the wire: the stale reply must not act on the new stream, and
// the replica converges to the complete history.
func TestGroupCommitResetDuringFlush(t *testing.T) {
	g, rep, p, s, m := startGatedPair(t, 64, 2)
	expect := loadKeys(t, p, m, "r", 30)
	expect["warm"] = "up"

	entered, release := g.arm(t)
	setDone := make(chan error, 1)
	go func() { setDone <- p.Set(sim.NewMeter(p.Enclave().Model()), []byte("inflight"), []byte("y")) }()
	waitClosed(t, entered, "a flush to reach the replica")
	reset := make(chan struct{})
	go func() {
		s.mu.Lock()
		s.scheduleBootstrapLocked("reset under an in-flight flush")
		s.mu.Unlock()
		close(reset)
	}()
	select {
	case <-reset:
	case <-time.After(5 * time.Second):
		release()
		t.Fatal("stream reset blocked behind the in-flight flush")
	}
	release()
	if err := <-setDone; err != nil {
		t.Fatalf("in-flight Set: %v", err)
	}
	expect["inflight"] = "y"
	waitSynced(t, s, rep)
	verifyReplica(t, rep, expect)
}

// TestGroupCommitCloseDuringFlush closes the shipper while a flush is
// parked: Close waits for it, and the writes behind it still return.
func TestGroupCommitCloseDuringFlush(t *testing.T) {
	g, _, p, s, m := startGatedPair(t, 65, 2)
	entered, release := g.arm(t)
	setDone := make(chan error, 1)
	go func() { setDone <- p.Set(sim.NewMeter(p.Enclave().Model()), []byte("inflight"), []byte("z")) }()
	waitClosed(t, entered, "a flush to reach the replica")

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close dropped the link under an in-flight flush")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	waitClosed(t, closed, "Close")
	if err := <-setDone; err != nil {
		t.Fatalf("in-flight Set: %v", err)
	}
	// A closed shipper takes no frames; writes keep succeeding locally.
	if err := p.Set(m, []byte("after"), []byte("close")); err != nil {
		t.Fatalf("Set after Close: %v", err)
	}
}

// failingWAL is a local journal whose disk dies: every LogOp from the
// failFrom-th on fails. Only the owning partition worker calls it.
type failingWAL struct{ n, failFrom int }

func (w *failingWAL) LogOp(*sim.Meter, core.BatchKind, []byte, []byte, int64) error {
	w.n++
	if w.n >= w.failFrom {
		return errors.New("wal: write failed")
	}
	return nil
}

// TestGroupCommitSurvivesWALFailure fails the local WAL under a
// partition's tee mid-run: only the WAL is dropped, the partition flags
// JournalLost, and every write acknowledged after the failure — the
// failing one included — is already on the replica when its ack returns.
func TestGroupCommitSurvivesWALFailure(t *testing.T) {
	rep := startReplicaNode(t, 66)
	wal := &failingWAL{failFrom: 3}
	p, s, m := startPrimaryPoolJournaled(t, 66, rep.addr, nil, 1, func(int) core.Journal { return wal })
	rm := sim.NewMeter(rep.p.Enclave().Model())
	const writes = 10
	for i := 0; i < writes; i++ {
		k, v := fmt.Sprintf("wal%02d", i), fmt.Sprintf("v%02d", i)
		if err := p.Set(m, []byte(k), []byte(v)); err != nil {
			t.Fatalf("Set %s: %v", k, err)
		}
		if got, err := rep.p.Get(rm, []byte(k)); err != nil || string(got) != v {
			t.Fatalf("acked %s=%q but replica holds %q (%v)", k, v, got, err)
		}
	}
	if !p.Part(0).JournalLost() {
		t.Fatal("WAL failure did not flag JournalLost")
	}
	if acked, assigned := s.Watermark(); acked != writes || assigned != writes {
		t.Fatalf("watermark acked=%d assigned=%d, want %d/%d", acked, assigned, writes, writes)
	}
}
