package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Span kinds. A span's self time is its duration minus its children's.
const (
	spGet         int8 = iota // root: one Get, as the worker saw it
	spSet                     // root: one Set
	spClient                  // client.Client call
	spClientWrite             // client conn Write
	spClientRead              // client conn Read
	spServer                  // server: frame read done .. response written
	spServerWrite             // server conn Write of the response
	spCore                    // DB.Get/DB.Set call
	spCluster                 // cluster.Client call
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"get", "set", "client", "client.write", "client.read", "server", "server.write", "core", "cluster"}

// span is one timed interval of one op, in ns since the tracer's base.
type span struct {
	op         int64
	kind       int8
	parent     int8 // -1 for a root
	start, end int64
}

// tracer records spans in memory; they are written out when the run
// ends. Client-side spans go to the worker's lane (one goroutine each);
// server-side spans go to the connection's serverLane.
type tracer struct {
	base    time.Time
	ops     atomic.Int64
	lanes   [workers]lane
	servers [workers]serverLane
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// maxTracedOps bounds the ops per worker (and per traced connection)
// whose spans are kept, so a fast workload's trace fits in memory. Later
// ops still run the traced path; they are only not recorded.
const maxTracedOps = 50_000

// begin starts a traced op on worker w and returns the id its spans are
// recorded under: 0, which records nothing, once the worker has recorded
// maxTracedOps ops.
func (t *tracer) begin(w int) int64 {
	t.ops.Add(1)
	l := &t.lanes[w]
	l.cur = 0
	if l.n < maxTracedOps {
		l.cur = opID(w, l.n)
	}
	l.n++
	return l.cur
}

// opID is the id of worker w's n-th traced op. A traced connection
// carries one worker's ops in order, so its n-th answer is that op too.
func opID(w, n int) int64 { return int64(n)*workers + int64(w) + 1 }

// root records op's root span on worker w's lane.
func (t *tracer) root(w int, op int64, get bool, start, end int64) {
	t.lanes[w].add(span{op: op, kind: rootKind(get), parent: -1, start: start, end: end})
}

// rootKind is the root span kind of a Get or a Set.
func rootKind(get bool) int8 {
	if get {
		return spGet
	}
	return spSet
}

// lane is one worker's client-side record. cur is the op in flight on
// the worker's connection (0 while handshaking or not recording); n
// counts the traced ops begun.
type lane struct {
	cur           int64
	n             int
	spans         []span
	reads, writes int64
}

func (l *lane) add(s span) {
	if s.op != 0 {
		l.spans = append(l.spans, s)
	}
}

// clientConn times every Read and Write on a client connection.
type clientConn struct {
	net.Conn
	t *tracer
	l *lane
}

func (c *clientConn) Read(p []byte) (int, error) {
	s := c.t.now()
	n, err := c.Conn.Read(p)
	c.io(spClientRead, s)
	c.l.reads++
	return n, err
}

func (c *clientConn) Write(p []byte) (int, error) {
	s := c.t.now()
	n, err := c.Conn.Write(p)
	c.io(spClientWrite, s)
	c.l.writes++
	return n, err
}

func (c *clientConn) io(kind int8, start int64) {
	c.l.add(span{op: c.l.cur, kind: kind, parent: spClient, start: start, end: c.t.now()})
}

// serverLane is one server connection's record. Its reader goroutine
// (frame reads, engine call) and writer goroutine (response write) both
// update it. With one request in flight per connection, the n-th engine
// call and the n-th response write belong to the connection's n-th op.
type serverLane struct {
	mu                   sync.Mutex
	reads, writes, bytes int64
	readEnd              int64 // end of the latest Read
	frameEnd             int64 // frame read end of the op awaiting its response
	pending              bool
	seq                  int    // responses written
	spans                []span // op field holds seq until resolved
}

func (l *serverLane) read(end int64, n int) {
	l.mu.Lock()
	l.reads++
	l.bytes += int64(n)
	l.readEnd = end
	l.mu.Unlock()
}

func (l *serverLane) engine(start, end int64) {
	l.mu.Lock()
	if l.seq < maxTracedOps {
		l.spans = append(l.spans, span{op: int64(l.seq), kind: spCore, parent: spServer, start: start, end: end})
	}
	l.frameEnd, l.pending = l.readEnd, true
	l.mu.Unlock()
}

func (l *serverLane) write(start, end int64, n int) {
	l.mu.Lock()
	l.writes++
	l.bytes += int64(n)
	if l.pending {
		if l.seq < maxTracedOps {
			l.spans = append(l.spans,
				span{op: int64(l.seq), kind: spServer, parent: spClientRead, start: l.frameEnd, end: end},
				span{op: int64(l.seq), kind: spServerWrite, parent: spServer, start: start, end: end})
		}
		l.seq++
		l.pending = false
	}
	l.mu.Unlock()
}

// tracedListener hands out connections that report to lane l. Each
// traced server accepts exactly one connection.
type tracedListener struct {
	net.Listener
	t *tracer
	l *serverLane
}

func (ln *tracedListener) Accept() (net.Conn, error) {
	c, err := ln.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &serverConn{Conn: c, t: ln.t, l: ln.l}, nil
}

type serverConn struct {
	net.Conn
	t *tracer
	l *serverLane
}

func (c *serverConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.read(c.t.now(), n)
	return n, err
}

func (c *serverConn) Write(p []byte) (int, error) {
	s := c.t.now()
	n, err := c.Conn.Write(p)
	c.l.write(s, c.t.now(), n)
	return n, err
}

// resetCounts zeroes the I/O counters (drops handshake traffic).
func (t *tracer) resetCounts() {
	for w := range t.lanes {
		l := &t.lanes[w]
		l.reads, l.writes = 0, 0
		s := &t.servers[w]
		s.mu.Lock()
		s.reads, s.writes, s.bytes = 0, 0, 0
		s.mu.Unlock()
	}
}

// spans returns every recorded span, server spans joined to their ops.
func (t *tracer) spans() []span {
	var all []span
	for w := range t.lanes {
		all = append(all, t.lanes[w].spans...)
		s := &t.servers[w]
		s.mu.Lock()
		for _, sp := range s.spans {
			sp.op = opID(w, int(sp.op))
			all = append(all, sp)
		}
		s.mu.Unlock()
	}
	return all
}

// selfTimes groups spans by op. For every op it returns each kind's
// total duration and self time (duration minus its children's), in ns;
// has marks the kinds the op recorded.
type opTimes struct {
	get       bool
	has       [numSpanKinds]bool
	tot, self [numSpanKinds]int64
}

func selfTimes(all []span) []opTimes {
	slices.SortFunc(all, func(a, b span) int {
		switch {
		case a.op < b.op:
			return -1
		case a.op > b.op:
			return 1
		}
		return 0
	})
	var out []opTimes
	for i := 0; i < len(all); {
		j := i
		var ot opTimes
		var child [numSpanKinds]int64
		for ; j < len(all) && all[j].op == all[i].op; j++ {
			s := all[j]
			d := s.end - s.start
			ot.has[s.kind] = true
			ot.tot[s.kind] += d
			if s.parent >= 0 {
				child[s.parent] += d
			}
			if s.kind == spGet {
				ot.get = true
			}
		}
		for k := range ot.tot {
			ot.self[k] = max(0, ot.tot[k]-child[k])
		}
		out = append(out, ot)
		i = j
	}
	return out
}

// write dumps every span as TSV: op, span, parent, start_ns, end_ns.
func writeSpans(path string, all []span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "op\tspan\tparent\tstart_ns\tend_ns")
	for _, s := range all {
		parent := "-"
		if s.parent >= 0 {
			parent = spanNames[s.parent]
		}
		fmt.Fprintf(bw, "%d\t%s\t%s\t%d\t%d\n", s.op, spanNames[s.kind], parent, s.start, s.end)
	}
	return bw.Flush()
}
