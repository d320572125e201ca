package client

import (
	"errors"
	"net"
	"testing"
	"time"

	"shieldstore/internal/core"
	"shieldstore/internal/mem"
	"shieldstore/internal/proto"
	"shieldstore/internal/server"
	"shieldstore/internal/sgx"
)

func testServer(t *testing.T, secure bool) (*sgx.Enclave, string) {
	t.Helper()
	space := mem.NewSpace(mem.Config{EPCBytes: 16 << 20})
	e := sgx.New(sgx.Config{Space: space, Seed: 61, Measurement: [32]byte{0x42}})
	p := core.NewPartitioned(e, 2, core.Defaults(64))
	p.Start()
	t.Cleanup(p.Stop)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.Serve(ln, server.Config{
		Engine:  server.CoreEngine{P: p},
		Enclave: e,
		Secure:  secure,
		Logf:    t.Logf,
	})
	t.Cleanup(srv.Close)
	return e, ln.Addr().String()
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", Options{}); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestSecureRequiresVerifier(t *testing.T) {
	_, addr := testServer(t, true)
	if _, err := Dial(addr, Options{Secure: true}); err == nil {
		t.Fatal("secure dial without verifier accepted")
	}
}

func TestErrorMapping(t *testing.T) {
	e, addr := testServer(t, true)
	c, err := Dial(addr, Options{Verifier: e, Measurement: e.Measurement(), Secure: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	if err := c.Delete([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
	// Incr on text -> generic server error.
	if err := c.Set([]byte("txt"), []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Incr([]byte("txt"), 1); !errors.Is(err, ErrServer) {
		t.Fatalf("incr on text: %v", err)
	}
}

func TestSequentialRequestsShareSession(t *testing.T) {
	e, addr := testServer(t, true)
	c, err := Dial(addr, Options{Verifier: e, Measurement: e.Measurement(), Secure: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Many requests over one channel exercise the nonce sequence.
	for i := 0; i < 200; i++ {
		if err := c.Set([]byte{byte(i)}, []byte{byte(i)}); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	for i := 0; i < 200; i++ {
		v, err := c.Get([]byte{byte(i)})
		if err != nil || len(v) != 1 || v[0] != byte(i) {
			t.Fatalf("get %d: %v %v", i, v, err)
		}
	}
}

func TestMITMDowngradeFails(t *testing.T) {
	// A plaintext client talking to a secure server cannot get valid
	// responses: its unencrypted frames fail the server's channel Open.
	e, addr := testServer(t, true)
	_ = e
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The server expects a handshake hello; send a raw request instead.
	req := proto.EncodeRequest(&proto.Request{Cmd: proto.CmdGet, Key: []byte("k")})
	if err := proto.WriteFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	// The server should reject the malformed handshake and close.
	if _, err := proto.ReadFrame(conn); err == nil {
		t.Fatal("server answered a non-handshake frame on a secure listener")
	}
}

func TestPlaintextClientAgainstPlaintextServer(t *testing.T) {
	_, addr := testServer(t, false)
	c, err := Dial(addr, Options{Secure: false})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Append([]byte("a"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get([]byte("a"))
	if err != nil || string(v) != "x" {
		t.Fatalf("%q %v", v, err)
	}
}

func TestMGet(t *testing.T) {
	e, addr := testServer(t, true)
	c, err := Dial(addr, Options{Verifier: e, Measurement: e.Measurement(), Secure: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if err := c.Set([]byte{byte('a' + i)}, []byte{byte('A' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	vals, err := c.MGet([]byte("a"), []byte("missing"), []byte("c"), []byte("e"))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 4 {
		t.Fatalf("got %d values", len(vals))
	}
	if string(vals[0]) != "A" || string(vals[2]) != "C" || string(vals[3]) != "E" {
		t.Fatalf("values wrong: %q", vals)
	}
	if vals[1] != nil {
		t.Fatalf("missing key returned %q, want nil", vals[1])
	}
	// Empty batch.
	vals, err = c.MGet()
	if err != nil || len(vals) != 0 {
		t.Fatalf("empty mget: %v %v", vals, err)
	}
	// Large batch in one round trip.
	keys := make([][]byte, 100)
	for i := range keys {
		keys[i] = []byte{byte('a' + i%5)}
	}
	vals, err = c.MGet(keys...)
	if err != nil || len(vals) != 100 {
		t.Fatalf("large mget: %d %v", len(vals), err)
	}
}

func TestTimeoutArmedPerRoundTrip(t *testing.T) {
	// The deadline is armed at the start of every round trip and every
	// Pipeline.Flush and never cleared, so one that lapsed while the
	// client sat idle must not fail the next call of either kind.
	e, addr := testServer(t, true)
	const timeout = 200 * time.Millisecond
	c, err := Dial(addr, Options{Secure: true, Verifier: e, Measurement: e.Measurement(), Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key := []byte("k")
	time.Sleep(timeout + timeout/2)
	if err := c.Set(key, []byte("v")); err != nil {
		t.Fatalf("set after idle: %v", err)
	}
	time.Sleep(timeout + timeout/2)
	p := c.Pipeline()
	p.Get(key)
	if rs, err := p.Flush(); err != nil || string(rs[0].Value) != "v" {
		t.Fatalf("flush after idle: %v", err)
	}
	time.Sleep(timeout + timeout/2)
	if got, err := c.Get(key); err != nil || string(got) != "v" {
		t.Fatalf("get after idle: %q, %v", got, err)
	}
}
