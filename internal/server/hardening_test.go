// Degradation tests for the front-end's self-protection knobs: stalled
// or flooding clients are shed on a deadline instead of pinning handler
// goroutines, and shutdown is bounded even with wedged connections.
package server

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"shieldstore/internal/client"
	"shieldstore/internal/core"
	"shieldstore/internal/sgx"
)

func hardenedServer(t *testing.T, e *sgx.Enclave, mutate func(*Config)) (*Server, string) {
	t.Helper()
	p := core.NewPartitioned(e, 2, core.Defaults(64))
	p.Start()
	t.Cleanup(p.Stop)
	cfg := Config{Engine: CoreEngine{p}, Enclave: e}
	mutate(&cfg)
	return startServer(t, cfg)
}

// expectServerClose asserts the server ends the connection within the
// budget (any error counts — EOF or reset — but not a local timeout).
func expectServerClose(t *testing.T, conn net.Conn, budget time.Duration) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(budget))
	var one [1]byte
	if _, err := conn.Read(one[:]); err == nil {
		t.Fatal("server sent data instead of closing")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("server did not close a stalled connection within %v", budget)
	}
}

func TestIdleTimeoutClosesSilentConn(t *testing.T) {
	s, addr := hardenedServer(t, newEnclave(), func(c *Config) {
		c.IdleTimeout = 100 * time.Millisecond
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	expectServerClose(t, conn, 5*time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for s.LiveConns() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("LiveConns = %d after idle close", s.LiveConns())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestReadTimeoutShedsDribblingClient(t *testing.T) {
	// A client that announces a frame and then stalls mid-payload is cut
	// off by the read deadline even though it is never "idle".
	t.Run("split", func(t *testing.T) {
		_, addr := hardenedServer(t, newEnclave(), func(c *Config) {
			c.ReadTimeout = 100 * time.Millisecond
		})
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], 128) // promise 128 bytes...
		if _, err := conn.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte{0x01}); err != nil { // ...deliver one
			t.Fatal(err)
		}
		expectServerClose(t, conn, 5*time.Second)
	})
	// The header and the start of the payload arrive in one segment, so
	// the server's buffered reader takes both in the read that waits
	// under the long idle deadline. The rest of the payload must still be
	// bounded by the short read deadline, not the idle one.
	t.Run("coalesced", func(t *testing.T) {
		_, addr := hardenedServer(t, newEnclave(), func(c *Config) {
			c.IdleTimeout = time.Minute
			c.ReadTimeout = 100 * time.Millisecond
		})
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		msg := binary.LittleEndian.AppendUint32(nil, 128)
		msg = append(msg, 0x01, 0x02, 0x03)
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
		expectServerClose(t, conn, 5*time.Second)
	})
}

func TestHandshakeUnderDeadline(t *testing.T) {
	// With Secure on, a client that connects and never handshakes is shed
	// by the same idle deadline.
	_, addr := hardenedServer(t, newEnclave(), func(c *Config) {
		c.Secure = true
		c.IdleTimeout = 100 * time.Millisecond
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	expectServerClose(t, conn, 5*time.Second)
}

func TestMaxConnsShedsExcess(t *testing.T) {
	e := newEnclave()
	s, addr := hardenedServer(t, e, func(c *Config) {
		c.MaxConns = 1
	})
	c1, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	// The cap is in force: the next accept is closed immediately.
	c2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	expectServerClose(t, c2, 5*time.Second)
	if s.Rejected() == 0 {
		t.Fatal("shed connection not counted in Rejected")
	}
	// The established client is unaffected by the flood.
	if err := c1.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("established client degraded: %v", err)
	}
}

func TestDrainTimeoutBoundsClose(t *testing.T) {
	// No idle timeout: the stalled connection would block Close forever
	// without the bounded drain.
	s, addr := hardenedServer(t, newEnclave(), func(c *Config) {
		c.DrainTimeout = 100 * time.Millisecond
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Make sure the server actually picked the connection up.
	deadline := time.Now().Add(5 * time.Second)
	for s.LiveConns() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("connection never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	start := time.Now()
	s.Close()
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close took %v with a wedged connection", d)
	}
	if n := s.LiveConns(); n != 0 {
		t.Fatalf("%d connections survived the bounded drain", n)
	}
}
