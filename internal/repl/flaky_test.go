// End-to-end replication over a real wire: a primary pool whose journals
// tee through a Shipper, a replica server applying via its Applier, and a
// fault plane mangling the link. The invariants under every fault mix:
// every acknowledged write eventually lands on the replica exactly once,
// frames never apply out of order, and the link re-syncs by itself.
package repl

import (
	"fmt"
	"net"
	"testing"
	"time"

	"shieldstore/internal/client"
	"shieldstore/internal/core"
	"shieldstore/internal/fault"
	"shieldstore/internal/server"
	"shieldstore/internal/sim"
)

// replicaNode is one replica-role server over its own pool.
type replicaNode struct {
	p    *core.Partitioned
	a    *Applier
	srv  *server.Server
	addr string
}

func startReplicaNode(t *testing.T, seed uint64) *replicaNode {
	t.Helper()
	return startReplicaNodeHooked(t, seed, nil)
}

// replicateFunc is the server's CmdReplicate hook (Applier.Apply).
type replicateFunc = func(m *sim.Meter, payload []byte) (uint64, uint8)

// startReplicaNodeHooked is startReplicaNode with the server's replicate
// hook wrapped by wrap (nil: the applier's Apply as is) — how tests slow,
// gate or count the replica's side of the link.
func startReplicaNodeHooked(t *testing.T, seed uint64, wrap func(replicateFunc) replicateFunc) *replicaNode {
	t.Helper()
	e := testEnclave(seed)
	p := core.NewPartitioned(e, 2, core.Defaults(64))
	a, err := NewApplier(p, ApplierOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	t.Cleanup(p.Stop)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	apply := replicateFunc(a.Apply)
	if wrap != nil {
		apply = wrap(apply)
	}
	srv := server.Serve(ln, server.Config{
		Engine:       server.CoreEngine{P: p},
		Enclave:      e,
		Logf:         t.Logf,
		DrainTimeout: 100 * time.Millisecond,
		Replicate:    apply,
		Promote:      a.Promote,
		Writable:     a.Writable,
	})
	t.Cleanup(srv.Close)
	return &replicaNode{p: p, a: a, srv: srv, addr: srv.Addr().String()}
}

// startPrimaryPool builds a primary pool whose journals tee through a
// shipper at rep.addr, with the given fault plane on the link.
func startPrimaryPool(t *testing.T, seed uint64, addr string, faults *fault.Plane) (*core.Partitioned, *Shipper, *sim.Meter) {
	t.Helper()
	return startPrimaryPoolN(t, seed, addr, faults, 2)
}

// startPrimaryPoolN is startPrimaryPool with parts partitions.
func startPrimaryPoolN(t *testing.T, seed uint64, addr string, faults *fault.Plane, parts int) (*core.Partitioned, *Shipper, *sim.Meter) {
	t.Helper()
	return startPrimaryPoolJournaled(t, seed, addr, faults, parts, nil)
}

// startPrimaryPoolJournaled is startPrimaryPoolN whose tees wrap the
// local journal wal(part) (nil wal: replication without a local log).
func startPrimaryPoolJournaled(t *testing.T, seed uint64, addr string, faults *fault.Plane, parts int, wal func(part int) core.Journal) (*core.Partitioned, *Shipper, *sim.Meter) {
	t.Helper()
	e := testEnclave(seed)
	p := core.NewPartitioned(e, parts, core.Defaults(64))
	s := NewShipper(p, ShipperOptions{
		Addr:   addr,
		Link:   client.Options{},
		Faults: faults,
		Logf:   t.Logf,
		// Tight link backoff: the matrix hammers retries.
		Backoff:    time.Millisecond,
		MaxBackoff: 10 * time.Millisecond,
	})
	for i := 0; i < p.Parts(); i++ {
		var inner core.Journal
		if wal != nil {
			inner = wal(i)
		}
		p.SetJournal(i, s.Tee(i, inner))
	}
	p.Start()
	t.Cleanup(p.Stop)
	s.Start()
	t.Cleanup(s.Close)
	return p, s, sim.NewMeter(e.Model())
}

// loadKeys drives n mixed mutations through the primary and returns the
// expected key->value map. Every call below returning nil error is an
// acknowledged write — the replica must end up holding exactly this map.
func loadKeys(t *testing.T, p *core.Partitioned, m *sim.Meter, prefix string, n int) map[string]string {
	t.Helper()
	expect := map[string]string{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("%s%04d", prefix, i)
		v := fmt.Sprintf("val-%04d", i)
		if err := p.Set(m, []byte(k), []byte(v)); err != nil {
			t.Fatalf("Set %s: %v", k, err)
		}
		expect[k] = v
		switch i % 5 {
		case 1:
			if err := p.Append(m, []byte(k), []byte("+tail")); err != nil {
				t.Fatalf("Append %s: %v", k, err)
			}
			expect[k] = v + "+tail"
		case 2:
			if err := p.Delete(m, []byte(k)); err != nil {
				t.Fatalf("Delete %s: %v", k, err)
			}
			delete(expect, k)
		case 3:
			ctr := fmt.Sprintf("%sctr%04d", prefix, i)
			if _, err := p.Incr(m, []byte(ctr), int64(i)); err != nil {
				t.Fatalf("Incr %s: %v", ctr, err)
			}
			expect[ctr] = fmt.Sprintf("%d", i)
		case 4:
			// Batched sets drain together, so their frames share one group
			// commit — multi-frame payloads, which is what gives the
			// reorder/dup faults adjacent frames to mangle.
			ops := make([]core.BatchOp, 4)
			for j := range ops {
				bk := fmt.Sprintf("%sb%04d-%d", prefix, i, j)
				ops[j] = core.BatchOp{Kind: core.BatchSet, Key: []byte(bk), Value: []byte(v)}
				expect[bk] = v
			}
			for _, r := range p.SubmitBatch(m, ops).Wait() {
				if r.Err != nil {
					t.Fatalf("batch set: %v", r.Err)
				}
			}
		}
	}
	return expect
}

// verifyReplica asserts the replica pool holds exactly expect.
func verifyReplica(t *testing.T, rep *replicaNode, expect map[string]string) {
	t.Helper()
	m := sim.NewMeter(rep.p.Enclave().Model())
	for k, v := range expect {
		got, err := rep.p.Get(m, []byte(k))
		if err != nil {
			t.Fatalf("replica Get %s: %v", k, err)
		}
		if string(got) != v {
			t.Fatalf("replica %s = %q, want %q", k, got, v)
		}
	}
	if int(rep.p.Keys()) != len(expect) {
		t.Fatalf("replica holds %d keys, want %d", rep.p.Keys(), len(expect))
	}
}

func waitSynced(t *testing.T, s *Shipper, rep *replicaNode) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		acked, assigned := s.Watermark()
		if s.Synced() && acked == assigned && rep.a.Watermark() == assigned {
			return
		}
		// The shipper only flushes inside commits and bootstraps: nudge it
		// with an empty-cost commit via a throwaway mutation-free flush.
		s.mu.Lock()
		if !s.needsBootstrap && !s.bootstrapping && !s.closed && !s.fenced {
			s.flushLocked(s.meter)
		}
		s.mu.Unlock()
		time.Sleep(2 * time.Millisecond)
	}
	acked, assigned := s.Watermark()
	t.Fatalf("never synced: acked=%d assigned=%d replicaWM=%d synced=%v",
		acked, assigned, rep.a.Watermark(), s.Synced())
}

func TestReplPairShipsEverything(t *testing.T) {
	rep := startReplicaNode(t, 31)
	p, s, m := startPrimaryPool(t, 31, rep.addr, nil)

	expect := loadKeys(t, p, m, "k", 120)
	waitSynced(t, s, rep)
	verifyReplica(t, rep, expect)

	st := p.AggregateStats()
	if st.Events[sim.CtrReplShipped] == 0 {
		t.Fatal("CtrReplShipped = 0 on the primary")
	}
	if rep.a.Writable() {
		t.Fatal("unpromoted replica is writable")
	}
}

// TestReplFlakyLinkMatrix is the fault matrix for the shipping link:
// dropped, duplicated and reordered frames (alone and combined) must be
// detected by the replica's sequence/MAC chain — gap or chain break —
// then healed by resend or re-sync, with nothing applied out of order
// and nothing applied twice.
func TestReplFlakyLinkMatrix(t *testing.T) {
	cases := []struct {
		name   string
		points []string
	}{
		{"drop", []string{fault.PointReplDrop}},
		{"dup", []string{fault.PointReplDup}},
		{"reorder", []string{fault.PointReplReorder}},
		{"all", []string{fault.PointReplDrop, fault.PointReplDup, fault.PointReplReorder}},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plane := fault.New(uint64(100 + ci))
			for _, pt := range tc.points {
				// Fire on scattered payloads: Skip staggers the first hit,
				// Count bounds the total so the stream can converge.
				plane.Arm(pt, fault.Spec{Skip: 2, Count: 8})
			}
			rep := startReplicaNode(t, uint64(40+ci))
			p, s, m := startPrimaryPool(t, uint64(40+ci), rep.addr, plane)

			expect := loadKeys(t, p, m, "f", 150)
			if plane.TotalFired() == 0 {
				t.Fatal("no link fault ever fired")
			}
			waitSynced(t, s, rep)
			verifyReplica(t, rep, expect)
		})
	}
}

// TestShipperMigratesToFreshReplica is live migration phases 1+2 at the
// repl layer: retarget the stream at an empty node, bootstrap (snapshot +
// catch-up), and report Synced — the caller's cue to cut over.
func TestShipperMigratesToFreshReplica(t *testing.T) {
	rep := startReplicaNode(t, 55)
	p, s, m := startPrimaryPool(t, 55, rep.addr, nil)

	expect := loadKeys(t, p, m, "m", 80)
	waitSynced(t, s, rep)

	// New (empty) target comes up; the stream re-aims and bootstraps.
	spare := startReplicaNode(t, 55)
	s.MigrateTo(spare.addr, client.Options{})

	// Writes keep flowing during the migration window.
	for k, v := range loadKeys(t, p, m, "mw", 40) {
		expect[k] = v
	}
	waitSynced(t, s, spare)
	verifyReplica(t, spare, expect)

	// The old replica is simply abandoned mid-history; the new one is
	// complete. (Cutover/promotion is the cluster layer's job.)
	if spare.a.Writable() {
		t.Fatal("migration target writable before promotion")
	}
}

// TestShipperBuffersThroughReplicaOutage kills the replica server
// mid-load: writes keep succeeding (buffered), and when a replacement
// comes up at a new address the stream re-syncs completely.
func TestShipperBuffersThroughReplicaOutage(t *testing.T) {
	rep := startReplicaNode(t, 77)
	p, s, m := startPrimaryPool(t, 77, rep.addr, nil)

	expect := loadKeys(t, p, m, "a", 60)
	waitSynced(t, s, rep)

	rep.srv.Close() // the outage: acks stop, writes must not
	for k, v := range loadKeys(t, p, m, "b", 60) {
		expect[k] = v
	}

	rep2 := startReplicaNode(t, 77)
	s.MigrateTo(rep2.addr, client.Options{})
	waitSynced(t, s, rep2)
	verifyReplica(t, rep2, expect)
}
