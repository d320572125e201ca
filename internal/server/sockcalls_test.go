package server

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"

	"shieldstore/internal/client"
	"shieldstore/internal/core"
)

// countingListener hands out connections that count the server's Read
// and Write calls. A Read is counted when it returns and a Write when it
// starts, so both are counted before the client can see their effect.
type countingListener struct {
	net.Listener
	reads, writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: c, l: l}, nil
}

type countedConn struct {
	net.Conn
	l *countingListener
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.reads.Add(1)
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	return c.Conn.Write(p)
}

func TestServerOneSocketCallPerFrame(t *testing.T) {
	e := newEnclave()
	p := core.NewPartitioned(e, 2, core.Defaults(64))
	p.Start()
	t.Cleanup(p.Stop)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	s := Serve(cl, Config{Engine: CoreEngine{p}, Enclave: e, Secure: true, Logf: t.Logf})
	t.Cleanup(s.Close)
	c, err := client.Dial(ln.Addr().String(), client.Options{Secure: true, Verifier: e, Measurement: e.Measurement()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if w := cl.writes.Load(); w != 1 {
		t.Fatalf("handshake reply took %d writes, want 1", w)
	}

	cl.reads.Store(0)
	cl.writes.Store(0)
	const rounds = 10
	key, val := []byte("k"), bytes.Repeat([]byte{'v'}, 128)
	for i := 0; i < rounds; i++ {
		if err := c.Set(key, val); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	if r, w := cl.reads.Load(), cl.writes.Load(); r != 2*rounds || w != 2*rounds {
		t.Fatalf("%d requests cost %d server reads and %d writes, want one each per request", 2*rounds, r, w)
	}
}
