// The supervisor: probe loop, failover orchestration, re-protection and
// the topology endpoint. One goroutine owns all shard state; probes fan
// out in parallel each tick but join before any verdict is read, so the
// detectors and the promote/attach decisions are single-writer. Only the
// published topology (and the event meter behind StatsLines) crosses
// goroutines, under one mutex.
package ctl

import (
	"errors"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"shieldstore/internal/client"
	"shieldstore/internal/proto"
	"shieldstore/internal/sim"
)

// Node names one data-node endpoint and the options to dial it with.
type Node struct {
	Addr string
	Link client.Options
}

// ShardConfig is one shard's initial primary/replica pair.
type ShardConfig struct {
	Primary Node
	// Replica is the shard's standby; a zero Addr means the shard starts
	// life unprotected (re-protection will attach a spare if configured).
	Replica Node
}

// Config parameterizes a supervisor.
type Config struct {
	// Shards lists the cluster's pairs in ring order — the same order
	// every cluster client uses.
	Shards []ShardConfig
	// ProbeInterval is the health-probe tick (default 25ms).
	ProbeInterval time.Duration
	// ProbeTimeout deadline-bounds each probe's dial, handshake and
	// round trip (default 250ms): a wedged node costs one bounded wait
	// per tick, never a hang.
	ProbeTimeout time.Duration
	// DownAfter / UpAfter parameterize every node's failure detector
	// (Detector; defaults 3 and 2).
	DownAfter, UpAfter int
	// LagAlarm is the replication-lag alarm threshold in frames
	// (assigned - acked; default 4096). Crossing it on a protected shard
	// raises the topology's alarm flag and counts CtrCtlLagAlarm.
	LagAlarm uint64
	// SpawnSpare, when set, provisions a fresh empty replica-role node
	// for shard — the re-protection hook. After a failover (or a standby
	// death) the supervisor spawns a spare, attaches it to the shard's
	// active node (CmdReplAttach) and declares the shard protected once
	// the spare's watermark catches up. Unset, failed-over shards stay
	// unprotected and the topology says so.
	SpawnSpare func(shard int) (Node, error)
	// DropProbe, when set, drops matching probes before they touch the
	// network — the chaos tests' flaky-supervisor-link injection point.
	DropProbe func(shard int, addr string) bool
	// Listener serves CmdTopology/CmdPing/CmdStats (plaintext frames —
	// the topology holds no secrets and a lying supervisor can only
	// redirect reads; enclave-enforced epochs fence writes). Nil listens
	// on 127.0.0.1:0.
	Listener net.Listener
	// Logf receives orchestration decisions and probe failures.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 25 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 250 * time.Millisecond
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
	if c.UpAfter <= 0 {
		c.UpAfter = 2
	}
	if c.LagAlarm == 0 {
		c.LagAlarm = 4096
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// nodeState is one probed node: its endpoint, detector, lazily-dialed
// probe connection, and the outcome of the latest probe round.
type nodeState struct {
	node  Node
	det   Detector
	conn  *client.Client
	ok    bool              // latest probe succeeded
	stats map[string]string // latest repl_* stats (nil when probe failed)
}

func (ns *nodeState) close() {
	if ns.conn != nil {
		ns.conn.Close()
		ns.conn = nil
	}
}

// shardState is one shard's orchestration state, owned by the run loop.
type shardState struct {
	idx          int
	active       *nodeState
	standby      *nodeState // nil while unprotected
	pendingSpare *Node      // spawned but not yet attached
	epoch        uint64
	protected    bool
	lagAlarm     bool
	failovers    int
}

// Supervisor is a running control plane.
type Supervisor struct {
	cfg Config
	ln  net.Listener

	mu      sync.Mutex
	topo    Topology
	version uint64
	meter   *sim.Meter
	conns   map[net.Conn]struct{}
	closed  bool

	shards []*shardState

	quit chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// Start builds and starts a supervisor: probe loop plus topology
// endpoint. Close stops both.
func Start(cfg Config) (*Supervisor, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, errors.New("ctl: no shards configured")
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
	}
	s := &Supervisor{
		cfg:   cfg,
		ln:    ln,
		meter: sim.NewMeter(sim.DefaultCostModel()),
		conns: make(map[net.Conn]struct{}),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for i, sc := range cfg.Shards {
		st := &shardState{
			idx:    i,
			active: s.newNodeState(sc.Primary),
			epoch:  1,
		}
		if sc.Replica.Addr != "" {
			st.standby = s.newNodeState(sc.Replica)
		}
		s.shards = append(s.shards, st)
	}
	s.publish()
	s.wg.Add(1)
	go s.acceptLoop()
	go s.run()
	return s, nil
}

func (s *Supervisor) newNodeState(n Node) *nodeState {
	return &nodeState{
		node: n,
		det:  Detector{DownAfter: s.cfg.DownAfter, UpAfter: s.cfg.UpAfter},
	}
}

// Addr is the topology endpoint clients fetch CmdTopology from.
func (s *Supervisor) Addr() string { return s.ln.Addr().String() }

// Topology returns a copy of the current published view.
func (s *Supervisor) Topology() Topology {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.topo
	t.Shards = append([]ShardTopo(nil), s.topo.Shards...)
	return t
}

// StatsLines renders the supervisor's own counters ("name=value").
func (s *Supervisor) StatsLines() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ev := s.meter.Snapshot().Events
	return []string{
		"ctl_version=" + strconv.FormatUint(s.version, 10),
		"ctl_probes=" + strconv.FormatUint(ev[sim.CtrCtlProbe], 10),
		"ctl_failovers=" + strconv.FormatUint(ev[sim.CtrCtlFailover], 10),
		"ctl_lag_alarms=" + strconv.FormatUint(ev[sim.CtrCtlLagAlarm], 10),
	}
}

// Close stops the probe loop, the topology endpoint, and every probe
// connection.
func (s *Supervisor) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.quit)
	<-s.done // the loop owns the probe connections; wait before closing them
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	for _, st := range s.shards {
		st.active.close()
		if st.standby != nil {
			st.standby.close()
		}
	}
}

func (s *Supervisor) logf(format string, args ...any) { s.cfg.Logf(format, args...) }

func (s *Supervisor) count(c sim.Counter) {
	s.mu.Lock()
	s.meter.Count(c)
	s.mu.Unlock()
}

// --- probe loop ---

func (s *Supervisor) run() {
	defer close(s.done)
	tick := time.NewTicker(s.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-tick.C:
		}
		s.probeAll()
		for _, st := range s.shards {
			s.evalShard(st)
		}
	}
}

// probeAll probes every node of every shard in parallel, joins, then
// folds the outcomes into the detectors single-threaded.
func (s *Supervisor) probeAll() {
	var wg sync.WaitGroup
	for _, st := range s.shards {
		for _, ns := range []*nodeState{st.active, st.standby} {
			if ns == nil {
				continue
			}
			wg.Add(1)
			go func(shard int, ns *nodeState) {
				defer wg.Done()
				s.probeNode(shard, ns)
			}(st.idx, ns)
		}
	}
	wg.Wait()
	for _, st := range s.shards {
		st.active.det.Observe(st.active.ok)
		s.count(sim.CtrCtlProbe)
		if st.standby != nil {
			st.standby.det.Observe(st.standby.ok)
			s.count(sim.CtrCtlProbe)
		}
	}
}

// probeNode runs one deadline-bounded health+stats probe. A node counts
// as failed when it is unreachable, times out, or reports an unhealable
// partition (it answers, but it cannot serve its whole key range and
// retrying will not help — exactly what failover exists for).
func (s *Supervisor) probeNode(shard int, ns *nodeState) {
	ns.ok = false
	ns.stats = nil
	if s.cfg.DropProbe != nil && s.cfg.DropProbe(shard, ns.node.Addr) {
		return
	}
	if ns.conn == nil {
		link := ns.node.Link
		link.Timeout = s.cfg.ProbeTimeout
		link.Retry = client.RetryPolicy{} // the detector is the retry policy
		c, err := client.Dial(ns.node.Addr, link)
		if err != nil {
			return
		}
		ns.conn = c
	}
	health, err := ns.conn.Health()
	if err == nil {
		var stats []string
		stats, err = ns.conn.Stats()
		if err == nil {
			for _, l := range health {
				if strings.Contains(l, "=unhealable") {
					return // reachable but unserviceable: a miss
				}
			}
			ns.stats = parseKV(stats)
			ns.ok = true
			return
		}
	}
	ns.conn.Close()
	ns.conn = nil
}

// --- orchestration ---

// evalShard makes this tick's decisions for one shard, in priority
// order: reconcile a fallback promotion the clients performed while the
// supervisor was unreachable, orchestrate a failover for a dead active,
// drop a dead standby, re-protect an unprotected shard, and track
// protection/lag off the active's replication stats.
func (s *Supervisor) evalShard(st *shardState) {
	act := st.active

	// A writable cluster node reporting repl_fenced=1 means somebody won
	// an epoch race we did not run — a client's fallback failover
	// promoted the standby while this supervisor was unreachable. The
	// promotion already happened inside the enclaves; reconcile the
	// topology to it instead of fighting it.
	if act.ok && act.stats["repl_fenced"] == "1" &&
		st.standby != nil && st.standby.ok && st.standby.stats["repl_role"] == "promoted" {
		if ep := parseUint(st.standby.stats["repl_epoch"]); ep > st.epoch {
			st.epoch = ep
		}
		st.failovers++
		s.count(sim.CtrCtlFailover)
		s.swapActive(st, "reconciled fallback promotion")
		return
	}

	if act.det.Down() {
		// Promote only a live, caught-up standby: an unsynced spare is
		// missing acked writes and promoting it would lose them — better
		// a longer blackout than a silent gap.
		if st.standby != nil && !st.standby.det.Down() && st.protected {
			s.promoteStandby(st)
		}
		return
	}

	if st.standby != nil && st.standby.det.Down() {
		s.logf("ctl: shard %d: standby %s down, shard unprotected", st.idx, st.standby.node.Addr)
		st.standby.close()
		st.standby = nil
		st.protected = false
		s.publish()
	}

	if st.standby == nil && s.cfg.SpawnSpare != nil {
		s.reprotect(st)
		return
	}

	// Protection + lag monitoring off the active's shipper stats.
	if st.standby != nil && act.stats != nil {
		if !st.protected && act.stats["repl_synced"] == "1" {
			st.protected = true
			s.logf("ctl: shard %d: protected (replica %s caught up)", st.idx, st.standby.node.Addr)
			s.publish()
		}
		alarm := st.protected && parseUint(act.stats["repl_lag"]) > s.cfg.LagAlarm
		if alarm != st.lagAlarm {
			st.lagAlarm = alarm
			if alarm {
				s.count(sim.CtrCtlLagAlarm)
				s.logf("ctl: shard %d: replication lag %s frames over alarm threshold",
					st.idx, act.stats["repl_lag"])
			}
			s.publish()
		}
	}
}

// promoteStandby issues the supervisor-owned Promote(epoch+1) and swaps
// the standby in as the shard's active node.
func (s *Supervisor) promoteStandby(st *shardState) {
	tgt := st.standby
	if tgt.conn == nil {
		return // probe redials next tick
	}
	newEpoch := st.epoch + 1
	ep, err := tgt.conn.Promote(newEpoch)
	if err != nil {
		if ep > newEpoch {
			// The node is already past our target epoch: a promotion we
			// did not perform (fallback failover) won. Adopt its epoch.
			newEpoch = ep
		} else {
			s.logf("ctl: shard %d: promote %s to epoch %d: %v", st.idx, tgt.node.Addr, newEpoch, err)
			tgt.conn.Close()
			tgt.conn = nil
			return
		}
	}
	st.epoch = newEpoch
	st.failovers++
	s.count(sim.CtrCtlFailover)
	s.swapActive(st, "orchestrated failover")
}

// swapActive repoints the shard at its standby and retires the deposed
// node from probing — a recovered revenant is not failed back to; it is
// fenced by its own shipping the moment it talks to the new active.
func (s *Supervisor) swapActive(st *shardState, why string) {
	old := st.active
	st.active = st.standby
	st.standby = nil
	st.protected = false
	st.lagAlarm = false
	old.close()
	s.logf("ctl: shard %d: %s: active now %s at epoch %d", st.idx, why, st.active.node.Addr, st.epoch)
	s.publish()
}

// reprotect drives an unprotected shard back toward a protected pair:
// spawn a spare once, then attach it to the active node (CmdReplAttach,
// which bootstraps it through the shipper's snapshot path). Protection
// itself is declared later, by the stats monitor, when the spare's
// watermark has caught up.
func (s *Supervisor) reprotect(st *shardState) {
	if st.pendingSpare == nil {
		sp, err := s.cfg.SpawnSpare(st.idx)
		if err != nil {
			s.logf("ctl: shard %d: spawn spare: %v", st.idx, err)
			return
		}
		s.logf("ctl: shard %d: spawned spare %s", st.idx, sp.Addr)
		st.pendingSpare = &sp
	}
	act := st.active
	if !act.ok || act.conn == nil {
		return
	}
	if err := act.conn.ReplAttach(st.pendingSpare.Addr); err != nil {
		s.logf("ctl: shard %d: attach spare %s: %v", st.idx, st.pendingSpare.Addr, err)
		act.conn.Close()
		act.conn = nil
		return
	}
	st.standby = s.newNodeState(*st.pendingSpare)
	st.pendingSpare = nil
	st.protected = false
	s.logf("ctl: shard %d: attached spare %s, bootstrapping", st.idx, st.standby.node.Addr)
	s.publish()
}

// publish rebuilds and versions the topology from the loop-owned shard
// state. Called from the run loop (and once from Start).
func (s *Supervisor) publish() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version++
	t := Topology{Version: s.version}
	for _, st := range s.shards {
		e := ShardTopo{
			Shard:     st.idx,
			Epoch:     st.epoch,
			Primary:   st.active.node.Addr,
			Protected: st.protected,
			LagAlarm:  st.lagAlarm,
			Failovers: st.failovers,
		}
		if st.standby != nil {
			e.Replica = st.standby.node.Addr
		}
		t.Shards = append(t.Shards, e)
	}
	s.topo = t
}

// --- topology endpoint ---

// acceptLoop serves the topology endpoint: plaintext request/response
// frames answering CmdTopology, CmdPing and CmdStats.
func (s *Supervisor) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.serveConn(conn)
		}()
	}
}

// serveConn answers one connection's requests in order: frames are read
// through a buffered reader and each response frame leaves in one Write.
func (s *Supervisor) serveConn(conn net.Conn) {
	br := proto.NewFrameReader(conn)
	var frame, out []byte
	var req proto.Request
	for {
		var err error
		if frame, err = proto.ReadFrameInto(br, frame[:0]); err != nil {
			return
		}
		resp := proto.Response{Status: proto.StatusError}
		if derr := proto.DecodeRequestInto(&req, frame); derr == nil {
			switch req.Cmd {
			case proto.CmdPing:
				resp = proto.Response{Status: proto.StatusOK}
			case proto.CmdTopology:
				t := s.Topology()
				resp = proto.Response{
					Status: proto.StatusOK,
					Num:    int64(t.Version),
					Value:  proto.EncodeList(toBytes(t.Lines())),
				}
			case proto.CmdStats:
				resp = proto.Response{
					Status: proto.StatusOK,
					Value:  proto.EncodeList(toBytes(s.StatsLines())),
				}
			}
		}
		out = proto.AppendResponse(proto.StartFrame(out), &resp)
		if err := proto.SendFrame(conn, out); err != nil {
			return
		}
	}
}

// --- helpers ---

func toBytes(lines []string) [][]byte {
	out := make([][]byte, len(lines))
	for i, l := range lines {
		out[i] = []byte(l)
	}
	return out
}

// parseKV splits "name=value" stats lines into a map.
func parseKV(lines []string) map[string]string {
	m := make(map[string]string, len(lines))
	for _, l := range lines {
		if k, v, ok := strings.Cut(l, "="); ok {
			m[k] = v
		}
	}
	return m
}

func parseUint(v string) uint64 {
	n, _ := strconv.ParseUint(v, 10, 64)
	return n
}
