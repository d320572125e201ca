package main

import (
	"errors"
	"net"

	"shieldstore"
	"shieldstore/internal/client"
	"shieldstore/internal/server"
	"shieldstore/internal/sim"
	"shieldstore/internal/workload"
)

// preloadChunk is how many keys one MSet call loads.
const preloadChunk = 4096

// preload loads every key through mset in chunks.
func preload(in *inputs, mset func(keys, vals [][]byte) error) error {
	for i := 0; i < len(in.keys); i += preloadChunk {
		j := min(i+preloadChunk, len(in.keys))
		if err := mset(in.keys[i:j], in.vals[i:j]); err != nil {
			return err
		}
	}
	return nil
}

// wireSys is a standalone secure server (DB.Serve, HotCalls on) with one
// client connection per worker. The traced path adds, per worker, a
// server over the same DB built from a timing engine adapter and a
// wrapped listener, and a client over a wrapped connection: one server
// per connection, so the engine calls of a connection are known.
type wireSys struct {
	dbSys
	srv    *shieldstore.Server
	conns  []*client.Client
	tsrvs  []*server.Server
	tconns []*client.Client
}

func startWire(_ options, _ spec, in *inputs, t *tracer) (system, error) {
	s := &wireSys{dbSys: dbSys{in: in, t: t}}
	if err := s.start(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *wireSys) start() error {
	if err := s.open(shieldstore.Config{}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = s.db.Serve(ln, shieldstore.ServeOptions{HotCalls: true})
	copts := client.Options{Secure: true, Verifier: shieldstore.AttestationService(0), Measurement: shieldstore.Measurement()}
	for w := 0; w < workers; w++ {
		c, err := client.Dial(s.srv.Addr().String(), copts)
		if err != nil {
			return err
		}
		s.conns = append(s.conns, c)
	}
	if s.t == nil {
		return nil
	}
	for w := 0; w < workers; w++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lane := &s.t.servers[w]
		srv := server.Serve(&tracedListener{Listener: ln, t: s.t, l: lane}, server.Config{
			Engine:   timedEngine{db: s.db, t: s.t, l: lane},
			Enclave:  s.db.Enclave(),
			HotCalls: true,
			Secure:   true,
			Logf:     func(string, ...any) {},
		})
		s.tsrvs = append(s.tsrvs, srv)
		raw, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			return err
		}
		c, err := client.NewClient(&clientConn{Conn: raw, t: s.t, l: &s.t.lanes[w]}, copts)
		if err != nil {
			return err
		}
		s.tconns = append(s.tconns, c)
	}
	return nil
}

func (s *wireSys) exec(w int, get bool, ops []workload.Op, got [][]byte) error {
	return s.do(s.conns[w], get, ops[0].Key, got)
}

func (s *wireSys) traced(w int, op int64, get bool, ops []workload.Op, got [][]byte) error {
	start := s.t.now()
	err := s.do(s.tconns[w], get, ops[0].Key, got)
	s.t.lanes[w].add(span{op: op, kind: spClient, parent: rootKind(get), start: start, end: s.t.now()})
	return err
}

func (s *wireSys) do(c *client.Client, get bool, id uint64, got [][]byte) (err error) {
	if get {
		got[0], err = c.Get(s.in.keys[id])
		return err
	}
	return c.Set(s.in.keys[id], s.in.vals[id])
}

// layers adds the front end's enclave crossings, which only the traced
// servers count. A server's meters are safe to read once its connections
// are gone, so the traced path is shut down first; the totals include
// the two connections' handshakes.
func (s *wireSys) layers(vals map[string]float64, c0, c1 counters, ops, gets, sets int) {
	s.dbSys.layers(vals, c0, c1, ops, gets, sets)
	s.closeTraced()
	var hot, ocalls uint64
	for _, srv := range s.tsrvs {
		st := srv.NetworkStats()
		hot += st.Events[sim.CtrHotCall]
		ocalls += st.Events[sim.CtrOCall]
	}
	traced := float64(s.t.ops.Load())
	vals["sgx.hotcalls_per_op"] = float64(hot) / traced
	vals["sgx.ocalls_per_op"] += float64(ocalls) / traced
}

// closeTraced closes the traced clients and then their servers.
func (s *wireSys) closeTraced() {
	for _, c := range s.tconns {
		c.Close()
	}
	s.tconns = nil
	for _, srv := range s.tsrvs {
		srv.Close()
	}
}

func (s *wireSys) close() {
	// Clients first: a server's Close waits for its connections to end.
	s.closeTraced()
	s.tsrvs = nil
	for _, c := range s.conns {
		c.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	s.dbSys.close()
}

// timedEngine is the traced servers' engine: the DB's public Get and Set,
// timed as the core span of the connection's current op.
type timedEngine struct {
	db *shieldstore.DB
	t  *tracer
	l  *serverLane
}

func (e timedEngine) Get(_ *sim.Meter, key []byte) ([]byte, error) {
	s := e.t.now()
	v, err := e.db.Get(key)
	e.l.engine(s, e.t.now())
	return v, err
}

func (e timedEngine) Set(_ *sim.Meter, key, value []byte) error {
	s := e.t.now()
	err := e.db.Set(key, value)
	e.l.engine(s, e.t.now())
	return err
}

var errUnused = errors.New("not used by the benchmark")

func (e timedEngine) Delete(*sim.Meter, []byte) error               { return errUnused }
func (e timedEngine) Append(*sim.Meter, []byte, []byte) error       { return errUnused }
func (e timedEngine) Incr(*sim.Meter, []byte, int64) (int64, error) { return 0, errUnused }
