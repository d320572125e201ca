package client

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"

	"shieldstore/internal/proto"
)

// countingConn counts the Read and Write calls the client makes on its
// connection — one each is one socket call each way.
type countingConn struct {
	net.Conn
	reads, writes int
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads++
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

func TestOneSocketCallPerFrame(t *testing.T) {
	e, addr := testServer(t, true)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: raw}
	c, err := NewClient(cc, Options{Secure: true, Verifier: e, Measurement: e.Measurement()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if cc.writes != 1 {
		t.Fatalf("handshake hello took %d writes, want 1", cc.writes)
	}

	key, val := []byte("k"), bytes.Repeat([]byte{'v'}, 128)
	ops := []struct {
		name string
		do   func() error
	}{
		{"set", func() error { return c.Set(key, val) }},
		{"get", func() error { _, err := c.Get(key); return err }},
	}
	for _, op := range ops {
		for i := 0; i < 3; i++ {
			cc.reads, cc.writes = 0, 0
			if err := op.do(); err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
			if cc.writes != 1 || cc.reads != 1 {
				t.Fatalf("%s: %d writes and %d reads, want 1 and 1", op.name, cc.writes, cc.reads)
			}
		}
	}

	const depth = 32
	p := c.Pipeline()
	for i := 0; i < depth; i++ {
		p.Get(key)
	}
	cc.reads, cc.writes = 0, 0
	rs, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		if rs[i].Err != nil || !bytes.Equal(rs[i].Value, val) {
			t.Fatalf("pipelined get %d: %q, %v", i, rs[i].Value, rs[i].Err)
		}
	}
	if cc.writes != 1 {
		t.Fatalf("flush of %d frames took %d writes, want 1", depth, cc.writes)
	}
	if cc.reads > depth {
		t.Fatalf("flush of %d frames took %d reads, want at most one per reply", depth, cc.reads)
	}
}

func TestReconnectDropsBufferedBytes(t *testing.T) {
	// The first connection answers a Ping and, in the same Write, sends
	// an impossible frame header followed by a well-formed reply carrying
	// "stale". The client buffers the whole burst; the bad header breaks
	// the connection on the next Get, which reconnects and retries. The
	// retried Get must read the new connection's "fresh" reply, never the
	// stale frame left in the old connection's buffer.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	reply := func(resp *proto.Response) []byte {
		var b bytes.Buffer
		proto.WriteFrame(&b, proto.EncodeResponse(resp))
		return b.Bytes()
	}
	go func() {
		c1, err := ln.Accept()
		if err != nil {
			return
		}
		defer c1.Close()
		if _, err := proto.ReadFrame(c1); err != nil {
			return
		}
		burst := reply(&proto.Response{Status: proto.StatusOK})
		burst = binary.LittleEndian.AppendUint32(burst, proto.MaxFrame+1)
		burst = append(burst, reply(&proto.Response{Status: proto.StatusOK, Value: []byte("stale")})...)
		if _, err := c1.Write(burst); err != nil {
			return
		}
		c2, err := ln.Accept()
		if err != nil {
			return
		}
		defer c2.Close()
		for {
			if _, err := proto.ReadFrame(c2); err != nil {
				return
			}
			if _, err := c2.Write(reply(&proto.Response{Status: proto.StatusOK, Value: []byte("fresh")})); err != nil {
				return
			}
		}
	}()

	c, err := Dial(ln.Addr().String(), Options{Retry: testPolicy})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if c.br.Buffered() == 0 {
		t.Fatal("precondition: the burst after the Ping reply was not buffered")
	}
	got, err := c.Get([]byte("k"))
	if err != nil {
		t.Fatalf("get across reconnect: %v", err)
	}
	if string(got) != "fresh" {
		t.Fatalf("get across reconnect = %q, want %q", got, "fresh")
	}
	if c.Retries() != 1 {
		t.Fatalf("retries = %d, want 1", c.Retries())
	}
}
