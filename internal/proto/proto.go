// Package proto implements ShieldStore's client/server wire protocol and
// the secure session establishment of §3.2:
//
//  1. the client remote-attests the server enclave (a quote over the
//     handshake transcript, checked against the expected measurement),
//  2. both sides run X25519 and derive an AES-GCM session key, and
//  3. every subsequent request/response travels encrypted and
//     authenticated with monotonically increasing nonces (no replay).
//
// Frames are length-prefixed; requests and responses use a compact binary
// encoding. A plaintext mode exists only for the paper's "without network
// security" ablation in §6.4.
package proto

import (
	"bufio"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Command identifies a request type.
type Command uint8

// Commands.
const (
	CmdGet Command = iota + 1
	CmdSet
	CmdDelete
	CmdAppend
	CmdIncr
	CmdPing
	CmdMGet
	CmdStats
	CmdBatch
	CmdHealth
	// CmdReplicate carries a batch of sealed replication frames from a
	// primary's journal shipper to its replica (internal/repl). The
	// response's Num is the replica's acked watermark (highest applied
	// frame sequence).
	CmdReplicate
	// CmdPromote promotes a replica to primary: Delta carries the new
	// fencing epoch; the response's Num echoes the resulting epoch.
	CmdPromote
	// CmdReplAttach instructs a node to (re)target its replication stream
	// at the replica endpoint named by Key — the control plane's
	// re-protection hook. The node creates a journal shipper if it has
	// none, schedules a full bootstrap at the new target, and starts
	// streaming. Rejected on nodes that cannot ship (an unpromoted
	// replica) with StatusError.
	CmdReplAttach
	// CmdTopology asks a control-plane supervisor for its current cluster
	// view: the response's Num is the topology version and Value is an
	// EncodeList of per-shard lines (see internal/ctl.Topology). Data
	// nodes do not answer it.
	CmdTopology
)

// Status codes.
const (
	StatusOK uint8 = iota
	StatusNotFound
	StatusError
	StatusIntegrityViolation
	// StatusRebuilding reports a partition that is quarantined but being
	// rebuilt online: the operation was not applied and is safe to retry
	// (any op, not just idempotent ones) after a short backoff.
	StatusRebuilding
	// StatusUnhealable reports a partition that is quarantined, whose
	// rebuild was refused because its op journal is incomplete (a journal
	// write failed and the log was detached): retrying will not help, an
	// operator (or a failover to a replica) must intervene.
	StatusUnhealable
	// StatusFenced reports a node that has been fenced out by a newer
	// replication epoch (a replica was promoted in its place): mutations
	// are rejected; clients must re-route to the current primary.
	StatusFenced
	// StatusReplGap is a CmdReplicate-only response: a prefix of the
	// shipped frames was applied (Num = acked watermark) and the stream
	// must resume from watermark+1 — the replica saw a sequence gap or a
	// transiently failing partition and refuses to apply out of order.
	StatusReplGap
)

// Errors.
var (
	ErrFrameTooLarge = errors.New("proto: frame exceeds limit")
	ErrBadMessage    = errors.New("proto: malformed message")
	ErrReplay        = errors.New("proto: bad sequence (replayed or dropped frame)")
	ErrHandshake     = errors.New("proto: handshake failed")
)

// MaxFrame bounds a single frame (64 MiB).
const MaxFrame = 64 << 20

// FrameHeader is the size of a frame's little-endian length prefix.
const FrameHeader = 4

// ReadBuffer sizes the per-connection bufio.Reader that frames are read
// through (NewFrameReader). A frame that fits arrives in one read(2); a
// larger one streams past the buffer straight into the frame buffer.
const ReadBuffer = 16 << 10

// MaxKeptScratch caps the capacity of a frame-sized scratch buffer kept
// across calls (client encode/seal/read buffers, the server's pooled
// frame buffers). A rare large frame is served from a buffer that is then
// dropped, so one big request does not pin its size for a connection's
// lifetime.
const MaxKeptScratch = 64 << 10

// Retain returns b for reuse when its capacity is within MaxKeptScratch,
// and nil (let it be collected) otherwise.
func Retain(b []byte) []byte {
	if cap(b) > MaxKeptScratch {
		return nil
	}
	return b
}

// NewFrameReader wraps one connection end's read side for ReadFrameInto /
// ReadFrameHeader. The reader may buffer bytes beyond the current frame,
// so every later frame on that connection must be read through it.
func NewFrameReader(r io.Reader) *bufio.Reader {
	return bufio.NewReaderSize(r, ReadBuffer)
}

// Request is a client command.
type Request struct {
	Cmd   Command
	Key   []byte
	Value []byte
	Delta int64
}

// Response is a server reply.
type Response struct {
	Status uint8
	Value  []byte
	Num    int64
}

// AppendRequest appends a request encoding to dst:
// cmd(1) keyLen(4) valLen(4) delta(8) key val.
func AppendRequest(dst []byte, r *Request) []byte {
	var hdr [17]byte
	hdr[0] = byte(r.Cmd)
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(r.Key)))
	binary.LittleEndian.PutUint32(hdr[5:], uint32(len(r.Value)))
	binary.LittleEndian.PutUint64(hdr[9:], uint64(r.Delta))
	dst = append(dst, hdr[:]...)
	dst = append(dst, r.Key...)
	return append(dst, r.Value...)
}

// EncodeRequest renders a request into a fresh buffer.
func EncodeRequest(r *Request) []byte {
	return AppendRequest(make([]byte, 0, 17+len(r.Key)+len(r.Value)), r)
}

// DecodeRequest parses an encoded request, copying key and value out of
// the frame buffer.
//
//ss:attacker — parses adversary-controlled bytes.
func DecodeRequest(buf []byte) (*Request, error) {
	r := &Request{}
	if err := DecodeRequestInto(r, buf); err != nil {
		return nil, err
	}
	if r.Key != nil {
		r.Key = append([]byte(nil), r.Key...)
	}
	if r.Value != nil {
		r.Value = append([]byte(nil), r.Value...)
	}
	return r, nil
}

// DecodeRequestInto parses an encoded request without copying: the
// resulting Key and Value alias buf, so they are valid only while the
// caller keeps the frame buffer alive and unmodified.
//
//ss:attacker — parses adversary-controlled bytes.
func DecodeRequestInto(r *Request, buf []byte) error {
	if len(buf) < 17 {
		return ErrBadMessage
	}
	kl := int(binary.LittleEndian.Uint32(buf[1:]))
	vl := int(binary.LittleEndian.Uint32(buf[5:]))
	if kl < 0 || vl < 0 || 17+kl+vl != len(buf) {
		return ErrBadMessage
	}
	r.Cmd = Command(buf[0])
	r.Delta = int64(binary.LittleEndian.Uint64(buf[9:]))
	r.Key, r.Value = nil, nil
	if kl > 0 {
		r.Key = buf[17 : 17+kl]
	}
	if vl > 0 {
		r.Value = buf[17+kl:]
	}
	return nil
}

// AppendResponse appends a response encoding to dst:
// status(1) num(8) valLen(4) val.
func AppendResponse(dst []byte, r *Response) []byte {
	var hdr [13]byte
	hdr[0] = r.Status
	binary.LittleEndian.PutUint64(hdr[1:], uint64(r.Num))
	binary.LittleEndian.PutUint32(hdr[9:], uint32(len(r.Value)))
	dst = append(dst, hdr[:]...)
	return append(dst, r.Value...)
}

// EncodeResponse renders a response into a fresh buffer.
func EncodeResponse(r *Response) []byte {
	return AppendResponse(make([]byte, 0, 13+len(r.Value)), r)
}

// DecodeResponse parses an encoded response.
//
//ss:attacker — parses adversary-controlled bytes.
func DecodeResponse(buf []byte) (*Response, error) {
	if len(buf) < 13 {
		return nil, ErrBadMessage
	}
	vl := int(binary.LittleEndian.Uint32(buf[9:]))
	if vl < 0 || 13+vl != len(buf) {
		return nil, ErrBadMessage
	}
	r := &Response{
		Status: buf[0],
		Num:    int64(binary.LittleEndian.Uint64(buf[1:])),
	}
	if vl > 0 {
		r.Value = append([]byte(nil), buf[13:]...)
	}
	return r, nil
}

// StartFrame truncates dst and reserves a frame's length prefix at its
// front. Append the payload after it and pass the result to SendFrame, so
// the whole frame leaves in a single Write — one socket call per frame.
func StartFrame(dst []byte) []byte {
	return append(dst[:0], 0, 0, 0, 0)
}

// SendFrame fills in the length prefix of a frame begun with StartFrame
// and writes the frame with one Write. Payloads over MaxFrame are refused
// before anything is written.
func SendFrame(w io.Writer, frame []byte) error {
	n := len(frame) - FrameHeader
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(frame, uint32(n))
	_, err := w.Write(frame)
	return err
}

// WriteFrame writes one length-prefixed frame as two Writes (prefix, then
// payload). Meant for buffered writers; on a raw socket use StartFrame and
// SendFrame instead.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame into a fresh buffer.
//
//ss:attacker — parses adversary-controlled bytes.
func ReadFrame(r io.Reader) ([]byte, error) {
	return ReadFrameInto(r, nil)
}

// ReadFrameInto reads one length-prefixed frame into buf when its
// capacity suffices, allocating only when the frame is larger. With a
// pooled buffer this makes the server's frame reads allocation-free at
// steady state.
//
//ss:attacker — parses adversary-controlled bytes.
func ReadFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	n, err := ReadFrameHeader(r)
	if err != nil {
		return nil, err
	}
	return ReadFramePayloadInto(r, n, buf)
}

// ReadFrameHeader reads a frame's 4-byte length prefix and validates the
// announced size. Split from ReadFramePayloadInto so callers can apply
// different I/O deadlines to "waiting for a request" (idle) and "reading
// a request that already started" (stall).
//
//ss:attacker — parses adversary-controlled bytes.
func ReadFrameHeader(r io.Reader) (int, error) {
	var n int
	if br, ok := r.(*bufio.Reader); ok {
		// Peek the prefix straight out of the buffer: no per-frame header
		// array escapes to the heap through the io.Reader call.
		hdr, err := br.Peek(FrameHeader)
		if err != nil {
			if err == io.EOF && len(hdr) > 0 {
				err = io.ErrUnexpectedEOF // io.ReadFull's contract
			}
			return 0, err
		}
		n = int(binary.LittleEndian.Uint32(hdr))
		_, _ = br.Discard(FrameHeader) // cannot fail: the bytes were just peeked
	} else {
		var hdr [FrameHeader]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return 0, err
		}
		n = int(binary.LittleEndian.Uint32(hdr[:]))
	}
	if n > MaxFrame {
		return 0, ErrFrameTooLarge
	}
	return n, nil
}

// ReadFramePayloadInto reads the n-byte payload announced by
// ReadFrameHeader, reusing buf's capacity when it suffices.
//
//ss:attacker — parses adversary-controlled bytes.
func ReadFramePayloadInto(r io.Reader, n int, buf []byte) ([]byte, error) {
	if cap(buf) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Channel protects one direction-pair of a session. A nil *Channel means
// plaintext (the §6.4 no-network-security ablation).
//
// The send state (Seal/SealTo) and receive state (Open/OpenInPlace) are
// disjoint, so one goroutine may seal while another opens — the pipelined
// server's reader/writer split relies on this. Neither half is safe for
// use by two goroutines at once.
type Channel struct {
	aead      cipher.AEAD
	sendSeq   uint64
	recvSeq   uint64
	sendDir   byte
	recvDir   byte
	sendNonce [12]byte
	recvNonce [12]byte
}

// newChannel builds a channel from a 16-byte session key. The dir byte
// separates client→server and server→client nonce spaces.
func newChannel(key []byte, client bool) (*Channel, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	c := &Channel{aead: aead}
	if client {
		c.sendDir, c.recvDir = 1, 2
	} else {
		c.sendDir, c.recvDir = 2, 1
	}
	return c, nil
}

// Seal encrypts a payload with the next send nonce into a fresh buffer.
func (c *Channel) Seal(plain []byte) []byte {
	return c.SealTo(nil, plain)
}

// SealTo encrypts a payload with the next send nonce, appending the
// ciphertext to dst (which may share capacity with a pooled buffer).
func (c *Channel) SealTo(dst, plain []byte) []byte {
	c.sendNonce[0] = c.sendDir
	binary.LittleEndian.PutUint64(c.sendNonce[4:], c.sendSeq)
	c.sendSeq++
	return c.aead.Seal(dst, c.sendNonce[:], plain, nil)
}

// Open authenticates and decrypts the next received frame. Sequence
// numbers are implicit, so replayed, reordered or dropped frames fail.
//
//ss:attacker — parses adversary-controlled bytes.
func (c *Channel) Open(ct []byte) ([]byte, error) {
	c.recvNonce[0] = c.recvDir
	binary.LittleEndian.PutUint64(c.recvNonce[4:], c.recvSeq)
	pt, err := c.aead.Open(nil, c.recvNonce[:], ct, nil)
	if err != nil {
		return nil, ErrReplay
	}
	c.recvSeq++
	return pt, nil
}

// OpenInPlace is Open decrypting into ct's own backing array (GCM
// supports in-place opens), so a pooled frame buffer is both the
// ciphertext source and the plaintext destination. On error ct's contents
// are unspecified.
//
//ss:attacker — parses adversary-controlled bytes.
func (c *Channel) OpenInPlace(ct []byte) ([]byte, error) {
	c.recvNonce[0] = c.recvDir
	binary.LittleEndian.PutUint64(c.recvNonce[4:], c.recvSeq)
	pt, err := c.aead.Open(ct[:0], c.recvNonce[:], ct, nil)
	if err != nil {
		return nil, ErrReplay
	}
	c.recvSeq++
	return pt, nil
}

// Overhead returns the ciphertext expansion per frame.
func (c *Channel) Overhead() int { return c.aead.Overhead() }

// QuoteVerifier abstracts the attestation service: it validates a quote
// and returns the attested report data. *sgx.Enclave implements it.
type QuoteVerifier interface {
	VerifyQuote(quote []byte, expectMeasurement [32]byte) ([]byte, error)
}

// Quoter abstracts quote generation inside the server enclave.
type Quoter interface {
	Quote(reportData []byte) []byte
}

// handshake message layout: pub(32) nonce(16) for hello; quote for reply.

// ClientHandshake attests the server and derives the session channel,
// drawing client entropy from crypto/rand.
//
//ss:attacker — parses adversary-controlled bytes.
func ClientHandshake(rw io.ReadWriter, verifier QuoteVerifier, expect [32]byte) (*Channel, error) {
	return ClientHandshakeSeeded(rw, verifier, expect, rand.Reader)
}

// ClientHandshakeSeeded is ClientHandshake with caller-supplied entropy
// (deterministic tests and simulations).
//
//ss:attacker — parses adversary-controlled bytes.
func ClientHandshakeSeeded(rw io.ReadWriter, verifier QuoteVerifier, expect [32]byte, entropy io.Reader) (*Channel, error) {
	priv, err := ecdh.X25519().GenerateKey(entropy)
	if err != nil {
		return nil, err
	}
	return clientHandshakeWithKey(rw, verifier, expect, priv)
}

func clientHandshakeWithKey(rw io.ReadWriter, verifier QuoteVerifier, expect [32]byte, priv *ecdh.PrivateKey) (*Channel, error) {
	nonce := make([]byte, 16)
	// Derive the nonce from the public key: unique per session key.
	sum := sha256.Sum256(priv.PublicKey().Bytes())
	copy(nonce, sum[:16])

	frame := append(StartFrame(make([]byte, 0, FrameHeader+48)), priv.PublicKey().Bytes()...)
	frame = append(frame, nonce...)
	hello := frame[FrameHeader:]
	if err := SendFrame(rw, frame); err != nil {
		return nil, err
	}
	reply, err := ReadFrame(rw)
	if err != nil {
		return nil, err
	}
	if len(reply) < 32 {
		return nil, ErrHandshake
	}
	// Reply: serverPub(32) || quote(...)
	serverPubBytes := reply[:32]
	quote := reply[32:]
	report, err := verifier.VerifyQuote(quote, expect)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	// The quote must bind this session's transcript.
	want := transcript(hello, serverPubBytes)
	if !hmac.Equal(report, want) {
		return nil, fmt.Errorf("%w: transcript mismatch", ErrHandshake)
	}
	serverPub, err := ecdh.X25519().NewPublicKey(serverPubBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	shared, err := priv.ECDH(serverPub)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	return newChannel(sessionKey(shared, nonce), true)
}

// ServerHandshake answers a client hello, producing the server channel.
// entropy supplies the server's ephemeral key material (the enclave DRBG).
//
//ss:attacker — parses adversary-controlled bytes.
func ServerHandshake(rw io.ReadWriter, quoter Quoter, entropy io.Reader) (*Channel, error) {
	hello, err := ReadFrame(rw)
	if err != nil {
		return nil, err
	}
	if len(hello) != 48 {
		return nil, ErrHandshake
	}
	clientPub, err := ecdh.X25519().NewPublicKey(hello[:32])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	nonce := hello[32:48]

	priv, err := ecdh.X25519().GenerateKey(entropy)
	if err != nil {
		return nil, err
	}
	pub := priv.PublicKey().Bytes()
	quote := quoter.Quote(transcript(hello, pub))
	if err := SendFrame(rw, append(append(StartFrame(nil), pub...), quote...)); err != nil {
		return nil, err
	}
	shared, err := priv.ECDH(clientPub)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	return newChannel(sessionKey(shared, nonce), false)
}

// AppendList appends a list of byte strings to dst: n(4) then n x
// (len(4) bytes). A nil element is encoded with length 0xFFFFFFFF (MGet
// "missing" marker).
func AppendList(dst []byte, items [][]byte) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(items)))
	dst = append(dst, tmp[:]...)
	for _, it := range items {
		if it == nil {
			binary.LittleEndian.PutUint32(tmp[:], 0xFFFFFFFF)
			dst = append(dst, tmp[:]...)
			continue
		}
		binary.LittleEndian.PutUint32(tmp[:], uint32(len(it)))
		dst = append(dst, tmp[:]...)
		dst = append(dst, it...)
	}
	return dst
}

// EncodeList renders a list of byte strings into a fresh buffer.
func EncodeList(items [][]byte) []byte {
	size := 4
	for _, it := range items {
		size += 4 + len(it)
	}
	return AppendList(make([]byte, 0, size), items)
}

// DecodeList parses an EncodeList buffer.
//
//ss:attacker — parses adversary-controlled bytes.
func DecodeList(buf []byte) ([][]byte, error) {
	if len(buf) < 4 {
		return nil, ErrBadMessage
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if n < 0 || n > 1<<20 {
		return nil, ErrBadMessage
	}
	off := 4
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if off+4 > len(buf) {
			return nil, ErrBadMessage
		}
		l := binary.LittleEndian.Uint32(buf[off:])
		off += 4
		if l == 0xFFFFFFFF {
			out = append(out, nil)
			continue
		}
		if off+int(l) > len(buf) {
			return nil, ErrBadMessage
		}
		out = append(out, append([]byte(nil), buf[off:off+int(l)]...))
		off += int(l)
	}
	if off != len(buf) {
		return nil, ErrBadMessage
	}
	return out, nil
}

// transcript binds both handshake flights into the attested report data.
func transcript(hello, serverPub []byte) []byte {
	h := sha256.New()
	h.Write([]byte("shieldstore-handshake-v1"))
	h.Write(hello)
	h.Write(serverPub)
	return h.Sum(nil)
}

// sessionKey derives the 16-byte AES key from the ECDH secret and nonce.
func sessionKey(shared, nonce []byte) []byte {
	mac := hmac.New(sha256.New, shared)
	mac.Write([]byte("shieldstore-session-v1"))
	mac.Write(nonce)
	return mac.Sum(nil)[:16]
}
