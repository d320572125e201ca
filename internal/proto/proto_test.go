package proto

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"testing/quick"

	"shieldstore/internal/mem"
	"shieldstore/internal/sgx"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []*Request{
		{Cmd: CmdGet, Key: []byte("k")},
		{Cmd: CmdSet, Key: []byte("key"), Value: []byte("value")},
		{Cmd: CmdDelete, Key: []byte("key")},
		{Cmd: CmdAppend, Key: []byte("k"), Value: []byte("suffix")},
		{Cmd: CmdIncr, Key: []byte("ctr"), Delta: -42},
		{Cmd: CmdPing},
	}
	for _, r := range cases {
		got, err := DecodeRequest(EncodeRequest(r))
		if err != nil {
			t.Fatalf("%v: %v", r.Cmd, err)
		}
		if got.Cmd != r.Cmd || !bytes.Equal(got.Key, r.Key) ||
			!bytes.Equal(got.Value, r.Value) || got.Delta != r.Delta {
			t.Fatalf("round trip: %+v != %+v", got, r)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []*Response{
		{Status: StatusOK, Value: []byte("v")},
		{Status: StatusNotFound},
		{Status: StatusIntegrityViolation},
		{Status: StatusOK, Num: 1234567},
	}
	for _, r := range cases {
		got, err := DecodeResponse(EncodeResponse(r))
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != r.Status || !bytes.Equal(got.Value, r.Value) || got.Num != r.Num {
			t.Fatalf("round trip: %+v != %+v", got, r)
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	if _, err := DecodeRequest([]byte{1, 2, 3}); !errors.Is(err, ErrBadMessage) {
		t.Fatal("short request accepted")
	}
	// Inconsistent lengths.
	r := EncodeRequest(&Request{Cmd: CmdSet, Key: []byte("abc"), Value: []byte("d")})
	if _, err := DecodeRequest(r[:len(r)-1]); !errors.Is(err, ErrBadMessage) {
		t.Fatal("truncated request accepted")
	}
	if _, err := DecodeResponse([]byte{0}); !errors.Is(err, ErrBadMessage) {
		t.Fatal("short response accepted")
	}
	resp := EncodeResponse(&Response{Status: StatusOK, Value: []byte("xy")})
	if _, err := DecodeResponse(append(resp, 0)); !errors.Is(err, ErrBadMessage) {
		t.Fatal("oversized response accepted")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	// Frames written either way read back identically, unbuffered or
	// through a frame reader, including one larger than its buffer.
	payloads := [][]byte{{}, []byte("a"), bytes.Repeat([]byte{7}, 10000), bytes.Repeat([]byte{9}, 3*ReadBuffer)}
	for _, buffered := range []bool{false, true} {
		var buf bytes.Buffer
		for i, p := range payloads {
			var err error
			if i%2 == 0 {
				err = WriteFrame(&buf, p)
			} else {
				err = SendFrame(&buf, append(StartFrame(nil), p...))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		var r io.Reader = &buf
		if buffered {
			r = NewFrameReader(&buf)
		}
		for _, p := range payloads {
			got, err := ReadFrame(r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, p) {
				t.Fatalf("buffered=%v: frame mismatch", buffered)
			}
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	big := make([]byte, MaxFrame+1)
	if err := WriteFrame(&buf, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatal("oversized frame written")
	}
	if err := SendFrame(&buf, append(StartFrame(nil), big...)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatal("oversized frame sent")
	}
	if buf.Len() != 0 {
		t.Fatalf("refused frames left %d bytes behind", buf.Len())
	}
	// Forged oversized header on read, unbuffered and buffered.
	forged := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(forged)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatal("oversized frame header accepted")
	}
	if _, err := ReadFrame(NewFrameReader(bytes.NewReader(forged))); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatal("oversized frame header accepted through a frame reader")
	}
}

func TestTruncatedFrameHeader(t *testing.T) {
	// A stream that ends inside a length prefix is an unexpected EOF on
	// both read paths; one that ends before it is a clean EOF.
	for _, buffered := range []bool{false, true} {
		for _, tc := range []struct {
			in   []byte
			want error
		}{{nil, io.EOF}, {[]byte{1, 0}, io.ErrUnexpectedEOF}} {
			var r io.Reader = bytes.NewReader(tc.in)
			if buffered {
				r = NewFrameReader(r)
			}
			if _, err := ReadFrameHeader(r); err != tc.want {
				t.Fatalf("buffered=%v, %d header bytes: %v, want %v", buffered, len(tc.in), err, tc.want)
			}
		}
	}
}

func newTestEnclave(meas byte) *sgx.Enclave {
	space := mem.NewSpace(mem.Config{EPCBytes: 1 << 20})
	return sgx.New(sgx.Config{Space: space, Seed: 21, Measurement: [32]byte{meas}})
}

// handshakePair runs both sides of the handshake over an in-memory pipe.
func handshakePair(t *testing.T, enclave *sgx.Enclave, expect [32]byte) (*Channel, *Channel, error) {
	t.Helper()
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()

	type result struct {
		ch  *Channel
		err error
	}
	srvCh := make(chan result, 1)
	go func() {
		ch, err := ServerHandshake(c2, enclave, entropy(enclave))
		srvCh <- result{ch, err}
	}()
	cli, cliErr := ClientHandshake(c1, enclave, expect)
	srv := <-srvCh
	if cliErr != nil {
		return nil, nil, cliErr
	}
	if srv.err != nil {
		return nil, nil, srv.err
	}
	return cli, srv.ch, nil
}

// entropy adapts the enclave DRBG to io.Reader.
type drbgReader struct{ e *sgx.Enclave }

func (r drbgReader) Read(p []byte) (int, error) {
	r.e.ReadRand(nil, p)
	return len(p), nil
}

func entropy(e *sgx.Enclave) drbgReader { return drbgReader{e} }

func TestHandshakeAndSecureExchange(t *testing.T) {
	e := newTestEnclave(7)
	cli, srv, err := handshakePair(t, e, e.Measurement())
	if err != nil {
		t.Fatal(err)
	}

	// Client -> server.
	req := EncodeRequest(&Request{Cmd: CmdSet, Key: []byte("session-key-0001"), Value: []byte("session-value-01")})
	ct := cli.Seal(req)
	if bytes.Contains(ct, []byte("session-key-0001")) || bytes.Contains(ct, []byte("session-value-01")) {
		t.Fatal("ciphertext leaks request")
	}
	pt, err := srv.Open(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, req) {
		t.Fatal("request mismatch")
	}
	// Server -> client.
	resp := EncodeResponse(&Response{Status: StatusOK})
	pt2, err := cli.Open(srv.Seal(resp))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt2, resp) {
		t.Fatal("response mismatch")
	}
}

func TestHandshakeRejectsWrongMeasurement(t *testing.T) {
	e := newTestEnclave(7)
	var wrong [32]byte
	wrong[0] = 99
	if _, _, err := handshakePair(t, e, wrong); !errors.Is(err, ErrHandshake) {
		t.Fatalf("wrong measurement accepted: %v", err)
	}
}

func TestChannelRejectsReplay(t *testing.T) {
	e := newTestEnclave(7)
	cli, srv, err := handshakePair(t, e, e.Measurement())
	if err != nil {
		t.Fatal(err)
	}
	msg := cli.Seal([]byte("once"))
	if _, err := srv.Open(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Open(msg); !errors.Is(err, ErrReplay) {
		t.Fatal("replayed frame accepted")
	}
}

func TestChannelRejectsReorder(t *testing.T) {
	e := newTestEnclave(7)
	cli, srv, err := handshakePair(t, e, e.Measurement())
	if err != nil {
		t.Fatal(err)
	}
	m1 := cli.Seal([]byte("first"))
	m2 := cli.Seal([]byte("second"))
	if _, err := srv.Open(m2); !errors.Is(err, ErrReplay) {
		t.Fatal("out-of-order frame accepted")
	}
	if _, err := srv.Open(m1); err != nil {
		t.Fatal(err)
	}
}

func TestChannelRejectsTampering(t *testing.T) {
	e := newTestEnclave(7)
	cli, srv, err := handshakePair(t, e, e.Measurement())
	if err != nil {
		t.Fatal(err)
	}
	ct := cli.Seal([]byte("payload"))
	ct[0] ^= 1
	if _, err := srv.Open(ct); err == nil {
		t.Fatal("tampered frame accepted")
	}
}

func TestChannelDirectionsIndependent(t *testing.T) {
	// A frame sealed by the client must not open as a server frame
	// (direction confusion / reflection attack).
	e := newTestEnclave(7)
	cli, _, err := handshakePair(t, e, e.Measurement())
	if err != nil {
		t.Fatal(err)
	}
	ct := cli.Seal([]byte("hello"))
	if _, err := cli.Open(ct); err == nil {
		t.Fatal("reflected frame accepted")
	}
}

// Property: request encoding round-trips arbitrary keys and values.
func TestRequestEncodingProperty(t *testing.T) {
	f := func(cmd uint8, key, val []byte, delta int64) bool {
		r := &Request{Cmd: Command(cmd), Key: key, Value: val, Delta: delta}
		got, err := DecodeRequest(EncodeRequest(r))
		if err != nil {
			return false
		}
		return got.Cmd == r.Cmd && bytes.Equal(got.Key, key) &&
			bytes.Equal(got.Value, val) && got.Delta == delta
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestListRoundTrip(t *testing.T) {
	cases := [][][]byte{
		{},
		{[]byte("a")},
		{[]byte("a"), nil, []byte(""), []byte("ccc")},
		{nil, nil},
	}
	for i, items := range cases {
		got, err := DecodeList(EncodeList(items))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(got) != len(items) {
			t.Fatalf("case %d: %d items, want %d", i, len(got), len(items))
		}
		for j := range items {
			switch {
			case items[j] == nil && got[j] != nil:
				t.Fatalf("case %d item %d: nil lost", i, j)
			case items[j] != nil && !bytes.Equal(got[j], items[j]):
				t.Fatalf("case %d item %d: %q != %q", i, j, got[j], items[j])
			}
		}
	}
}

func TestDecodeListRejectsMalformed(t *testing.T) {
	for _, bad := range [][]byte{
		{},
		{1, 0, 0, 0},                         // claims 1 item, no data
		{1, 0, 0, 0, 5, 0, 0, 0, 'a'},        // item length exceeds buffer
		append(EncodeList([][]byte{{1}}), 0), // trailing garbage
		{0xFF, 0xFF, 0xFF, 0x7F},             // absurd count
	} {
		if _, err := DecodeList(bad); !errors.Is(err, ErrBadMessage) {
			t.Errorf("malformed list %v accepted", bad)
		}
	}
}

// Property: list encoding round-trips arbitrary inputs.
func TestListProperty(t *testing.T) {
	f := func(items [][]byte) bool {
		got, err := DecodeList(EncodeList(items))
		if err != nil || len(got) != len(items) {
			return false
		}
		for i := range items {
			if !bytes.Equal(got[i], items[i]) && !(len(got[i]) == 0 && len(items[i]) == 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
