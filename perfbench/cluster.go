package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"shieldstore/internal/cluster"
	"shieldstore/internal/mem"
	"shieldstore/internal/sim"
	"shieldstore/internal/workload"
)

// clusterSys is a two-shard secure cluster, every shard a primary
// shipping its journal synchronously to a replica, driven through one
// cluster.Client shared by the workers with MGet and MSet.
type clusterSys struct {
	in        *inputs
	h         *cluster.Harness
	primaries []*cluster.Shard
	cc        *cluster.Client
	t         *tracer
	// keys and vals are each worker's argument slices.
	keys, vals [workers][][]byte

	// The traced run samples the replication lag while it measures.
	stop   chan struct{}
	wg     sync.WaitGroup
	lagMax uint64
}

func startCluster(_ options, _ spec, in *inputs, t *tracer) (system, error) {
	s := &clusterSys{in: in, t: t}
	for w := range s.keys {
		s.keys[w] = make([][]byte, in.batch)
		s.vals[w] = make([][]byte, in.batch)
	}
	if err := s.start(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *clusterSys) start() error {
	h, err := cluster.StartHarness(cluster.HarnessConfig{Shards: 2, Replicas: true, Secure: true})
	if err != nil {
		return err
	}
	s.h = h
	for i := 0; i < h.Shards(); i++ {
		s.primaries = append(s.primaries, h.Shard(i))
	}
	cc, err := cluster.Dial(h.Options())
	if err != nil {
		return err
	}
	s.cc = cc
	if err := preload(s.in, cc.MSet); err != nil {
		return err
	}
	// Set-up ends once the replicas hold everything acknowledged.
	deadline := time.Now().Add(10 * time.Second)
	for s.lag() != 0 {
		if time.Now().After(deadline) {
			return errors.New("replicas did not catch up after preload")
		}
		time.Sleep(time.Millisecond)
	}
	if s.t != nil {
		s.stop = make(chan struct{})
		s.wg.Add(1)
		go s.sampleLag()
	}
	return nil
}

// lag is the unacknowledged frame count summed over shards.
func (s *clusterSys) lag() uint64 {
	var n uint64
	for _, sh := range s.primaries {
		n += sh.Shipper.Stats().Lag()
	}
	return n
}

// sampleLag records the largest lag seen, every 10 ms, until close.
func (s *clusterSys) sampleLag() {
	defer s.wg.Done()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			if n := s.lag(); n > s.lagMax {
				s.lagMax = n
			}
		}
	}
}

func (s *clusterSys) exec(w int, get bool, ops []workload.Op, got [][]byte) error {
	keys, vals := s.keys[w], s.vals[w]
	for i, op := range ops {
		keys[i], vals[i] = s.in.keys[op.Key], s.in.vals[op.Key]
	}
	if !get {
		return s.cc.MSet(keys, vals)
	}
	vs, err := s.cc.MGet(keys...)
	copy(got, vs)
	return err
}

func (s *clusterSys) traced(w int, op int64, get bool, ops []workload.Op, got [][]byte) error {
	start := s.t.now()
	err := s.exec(w, get, ops, got)
	s.t.lanes[w].add(span{op: op, kind: spCluster, parent: rootKind(get), start: start, end: s.t.now()})
	return err
}

// counters reads the primaries' worker pools and shippers, the
// replicas' appliers, and every node's simulated memory.
func (s *clusterSys) counters() counters {
	var c counters
	for _, sh := range s.primaries {
		st := sh.Pool.AggregateStats()
		c.vsec = max(c.vsec, sh.Enclave.Model().Seconds(st.Cycles))
		c.decrypts += st.Events[sim.CtrDecrypt]
		c.cmacs += st.Events[sim.CtrCMAC]
		c.entries += st.Events[sim.CtrEntryVisited]
		c.cacheHit += st.Events[sim.CtrCacheHit]
		c.cacheMiss += st.Events[sim.CtrCacheMiss]
		c.ocalls += st.Events[sim.CtrOCall]
		c.hotcalls += st.Events[sim.CtrHotCall]
		c.epcFaults += st.Events[sim.CtrEPCFaultRead] + st.Events[sim.CtrEPCFaultWrite]
		ship := sh.Shipper.Stats()
		c.frames += ship.Assigned
		c.lag += ship.Lag()
		c.applied += sh.Replica.Applier.Watermark()
		for _, n := range []*cluster.Shard{sh, sh.Replica} {
			sp := n.Enclave.Space()
			c.untrusted += sp.UsedBytes(mem.Untrusted)
			c.encl += sp.UsedBytes(mem.Enclave)
		}
	}
	return c
}

// check requires every acknowledged write to have reached its replica.
func (s *clusterSys) check() error {
	if n := s.lag(); n != 0 {
		return fmt.Errorf("replication lag %d frames at end of run", n)
	}
	return nil
}

func (s *clusterSys) close() {
	s.stopSampling()
	if s.cc != nil {
		s.cc.Close()
	}
	if s.h != nil {
		s.h.Close() // a no-op when layers closed it
	}
}

func (s *clusterSys) layers(vals map[string]float64, c0, c1 counters, ops, gets, sets int) {
	perOp := func(a, b uint64) float64 { return float64(b-a) / float64(ops) }
	perSet := func(a, b uint64) float64 { return float64(b-a) / float64(max(1, sets)) }
	vals["core.decrypts_per_op"] = perOp(c0.decrypts, c1.decrypts)
	vals["core.cmacs_per_op"] = perOp(c0.cmacs, c1.cmacs)
	vals["core.entries_visited_per_op"] = perOp(c0.entries, c1.entries)
	if lookups := (c1.cacheHit - c0.cacheHit) + (c1.cacheMiss - c0.cacheMiss); lookups > 0 {
		vals["core.cache_hit_frac"] = float64(c1.cacheHit-c0.cacheHit) / float64(lookups)
	}
	vals["mem.untrusted_mb"] = float64(c1.untrusted) / (1 << 20)
	vals["mem.enclave_mb"] = float64(c1.encl) / (1 << 20)

	// The primaries' front-end meters are safe to read once their
	// connections are gone: close the client, then the harness. The totals
	// include set-up traffic (handshakes, preload batches).
	s.stopSampling()
	s.cc.Close()
	s.cc = nil
	s.h.Close()
	var total, busiest, ocalls, hot uint64
	for _, sh := range s.primaries {
		st := sh.Server.NetworkStats()
		ocalls += st.Events[sim.CtrOCall]
		hot += st.Events[sim.CtrHotCall]
		// Each request is one message into the front end and one out.
		n := st.Events[sim.CtrNetMessage] / 2
		total += n
		busiest = max(busiest, n)
	}
	vals["sgx.ocalls_per_op"] = perOp(c0.ocalls, c1.ocalls) + float64(ocalls)/float64(ops)
	vals["sgx.hotcalls_per_op"] = perOp(c0.hotcalls, c1.hotcalls) + float64(hot)/float64(ops)
	vals["sgx.epc_faults_per_op"] = perOp(c0.epcFaults, c1.epcFaults)
	vals["cluster.server_requests_per_op"] = float64(total) / float64(ops)
	if total > 0 {
		vals["cluster.shard_skew"] = float64(busiest) * float64(len(s.primaries)) / float64(total)
	}
	vals["repl.frames_per_set"] = perSet(c0.frames, c1.frames)
	vals["repl.applied_per_set"] = perSet(c0.applied, c1.applied)
	vals["repl.lag_frames_max"] = float64(s.lagMax)
	vals["repl.lag_frames_end"] = float64(c1.lag)
}

// stopSampling ends the lag sampler and waits for it.
func (s *clusterSys) stopSampling() {
	if s.stop != nil {
		close(s.stop)
		s.wg.Wait()
		s.stop = nil
	}
}
