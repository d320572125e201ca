// Package client implements the remote ShieldStore client: it dials the
// server, remote-attests the enclave, establishes the encrypted session
// of §3.2, and issues get/set/delete/append/incr requests.
//
//ss:host(the client is the remote, untrusted peer; it crosses no enclave boundary)
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"shieldstore/internal/proto"
)

// Errors surfaced to callers.
var (
	// ErrNotFound mirrors the server-side missing-key status.
	ErrNotFound = errors.New("shieldstore client: key not found")
	// ErrIntegrity reports a server-side integrity violation.
	ErrIntegrity = errors.New("shieldstore client: server reported integrity violation")
	// ErrRebuilding reports a partition that is being rebuilt after an
	// integrity failure: the operation was NOT applied and is safe to
	// retry — for any op, not just idempotent ones — after a short
	// backoff. With Options.Retry enabled the client does this itself.
	ErrRebuilding = errors.New("shieldstore client: partition rebuilding, retry")
	// ErrUnhealable reports a partition whose self-heal was refused (its
	// op journal is incomplete): the condition does not clear on its own —
	// an operator restore or a replica failover must intervene. Never
	// retried against the same node.
	ErrUnhealable = errors.New("shieldstore client: partition unhealable, failover required")
	// ErrFenced reports a node that has been fenced out by a newer
	// replication epoch (a replica was promoted in its place): the write
	// was retracted and must be re-routed to the current primary.
	ErrFenced = errors.New("shieldstore client: node fenced by newer replication epoch")
	// ErrServer reports any other server-side failure.
	ErrServer = errors.New("shieldstore client: server error")
	// ErrConnection wraps transport failures (dial, read, write). Only
	// errors of this class are ever retried.
	ErrConnection = errors.New("shieldstore client: connection failure")
)

// Options configures a client connection.
type Options struct {
	// Verifier validates the server's attestation quote (the simulated
	// attestation service); required when Secure is true.
	Verifier proto.QuoteVerifier
	// Measurement is the expected enclave identity.
	Measurement [32]byte
	// Secure enables attestation + channel encryption (the default
	// deployment; disable only for the §6.4 plaintext ablation).
	Secure bool
	// Retry enables transparent reconnection and bounded retry of
	// idempotent requests (Get, MGet, Ping, Stats) after transport
	// failures. Mutations are never retried over a transport failure — a
	// write whose response was lost may have been applied, and replaying
	// it silently would be wrong — but a broken connection is still
	// re-established before the next mutation is sent. A server-reported
	// StatusRebuilding is different: the op was definitively not applied,
	// so ALL ops (mutations included) are retried with backoff while a
	// partition heals.
	Retry RetryPolicy
	// Timeout, when set, deadline-bounds every dial, handshake and
	// request/response round trip on this connection. A probe client (the
	// control plane's failure detector) sets it so a wedged or
	// half-partitioned node costs a bounded wait, never a hang; an
	// expired deadline surfaces as ErrConnection. 0 means no deadline.
	// The deadline is armed once at the start of each round trip (and of
	// each Pipeline.Flush) and never cleared: nothing touches the socket
	// between round trips, so a lapsed deadline can never fire.
	Timeout time.Duration
}

// Client is one connection to a ShieldStore server. A Client is not safe
// for concurrent use; open one connection per goroutine.
type Client struct {
	conn net.Conn
	br   *bufio.Reader // frame reads; Reset onto each reconnected conn
	ch   *proto.Channel

	addr    string // reconnect target ("" when wrapping a raw conn)
	opts    Options
	broken  bool   // the connection (or its channel state) is unusable
	retries uint64 // reconnect attempts performed (tests, stats)

	// Reused request/response scratch (encode, seal, frame read). enc
	// and sealed hold whole frames: the length prefix is reserved at the
	// front so a request leaves in one Write.
	enc    []byte
	sealed []byte
	frame  []byte
}

// Dial connects and (when Secure) attests + establishes the session.
// The address is remembered: with Options.Retry enabled the client can
// re-dial after a transport failure.
func Dial(addr string, opts Options) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, opts.Timeout)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConnection, err)
	}
	c, err := NewClient(conn, opts)
	if err != nil {
		return nil, err
	}
	c.addr = addr
	return c, nil
}

// NewClient wraps an existing connection (tests, in-memory pipes).
func NewClient(conn net.Conn, opts Options) (*Client, error) {
	c := &Client{conn: conn, opts: opts}
	if opts.Secure {
		if opts.Verifier == nil {
			conn.Close()
			return nil, fmt.Errorf("shieldstore client: Secure requires a Verifier")
		}
		if opts.Timeout > 0 {
			conn.SetDeadline(time.Now().Add(opts.Timeout))
		}
		ch, err := proto.ClientHandshake(conn, opts.Verifier, opts.Measurement)
		if err != nil {
			conn.Close()
			return nil, err
		}
		c.ch = ch
	}
	// Created after the handshake, which reads the raw conn: the server
	// sends nothing more until the first request.
	c.br = proto.NewFrameReader(conn)
	return c, nil
}

// Close terminates the connection.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends one non-idempotent request: a broken connection is
// re-established first, but the request itself is never replayed.
func (c *Client) roundTrip(req *proto.Request) (*proto.Response, error) {
	return c.do(req, false)
}

// roundTripIdem sends a request that is safe to replay after a
// transport failure.
func (c *Client) roundTripIdem(req *proto.Request) (*proto.Response, error) {
	return c.do(req, true)
}

// exchange sends one request on the current connection and decodes the
// reply WITHOUT interpreting its status — the raw transport round trip.
// The request frame is built whole in the encode (or seal) scratch and
// sent with one Write; the reply is read through the buffered reader, one
// read for a frame that fits it. Encode, seal and frame buffers are
// reused across calls (DecodeResponse copies the value out before the
// scratch is recycled). Transport failures come back wrapped in
// ErrConnection and poison the connection; channel/protocol failures
// poison it too (the stream or nonce sequence is unrecoverable) but are
// never retried.
func (c *Client) exchange(req *proto.Request) (*proto.Response, error) {
	defer c.trimScratch()
	if c.opts.Timeout > 0 {
		// One deadline spans the whole round trip: a node that accepts the
		// request and never answers is as failed as one that refuses it.
		c.conn.SetDeadline(time.Now().Add(c.opts.Timeout))
	}
	c.enc = proto.AppendRequest(proto.StartFrame(c.enc), req)
	out := c.enc
	if c.ch != nil {
		c.sealed = c.ch.SealTo(proto.StartFrame(c.sealed), c.enc[proto.FrameHeader:])
		out = c.sealed
	}
	if err := proto.SendFrame(c.conn, out); err != nil {
		c.broken = true
		return nil, fmt.Errorf("%w: %v", ErrConnection, err)
	}
	frame, err := proto.ReadFrameInto(c.br, c.frame[:0])
	if err != nil {
		c.broken = true
		return nil, fmt.Errorf("%w: %v", ErrConnection, err)
	}
	c.frame = frame
	if c.ch != nil {
		frame, err = c.ch.OpenInPlace(frame)
		if err != nil {
			c.broken = true
			return nil, err
		}
	}
	resp, err := proto.DecodeResponse(frame)
	if err != nil {
		c.broken = true
		return nil, err
	}
	return resp, nil
}

// trimScratch drops frame scratch that grew past proto.MaxKeptScratch, so
// one large request or reply does not pin its size for the client's life.
func (c *Client) trimScratch() {
	c.enc, c.sealed, c.frame = proto.Retain(c.enc), proto.Retain(c.sealed), proto.Retain(c.frame)
}

// roundTripOnce is exchange plus the status-to-error mapping every
// ordinary command shares.
func (c *Client) roundTripOnce(req *proto.Request) (*proto.Response, error) {
	resp, err := c.exchange(req)
	if err != nil {
		return nil, err
	}
	switch resp.Status {
	case proto.StatusOK:
		return resp, nil
	case proto.StatusNotFound:
		return nil, ErrNotFound
	case proto.StatusIntegrityViolation:
		return nil, ErrIntegrity
	case proto.StatusRebuilding:
		// The connection itself is fine (not poisoned): the op simply
		// arrived while its partition was healing and was not applied.
		return nil, ErrRebuilding
	case proto.StatusUnhealable:
		return nil, ErrUnhealable
	case proto.StatusFenced:
		return nil, ErrFenced
	default:
		return nil, ErrServer
	}
}

// Get fetches a value.
func (c *Client) Get(key []byte) ([]byte, error) {
	resp, err := c.roundTripIdem(&proto.Request{Cmd: proto.CmdGet, Key: key})
	if err != nil {
		return nil, err
	}
	return resp.Value, nil
}

// Set stores a value.
func (c *Client) Set(key, value []byte) error {
	_, err := c.roundTrip(&proto.Request{Cmd: proto.CmdSet, Key: key, Value: value})
	return err
}

// Delete removes a key.
func (c *Client) Delete(key []byte) error {
	_, err := c.roundTrip(&proto.Request{Cmd: proto.CmdDelete, Key: key})
	return err
}

// Append appends to a value server-side.
func (c *Client) Append(key, suffix []byte) error {
	_, err := c.roundTrip(&proto.Request{Cmd: proto.CmdAppend, Key: key, Value: suffix})
	return err
}

// Incr adds delta to a numeric value server-side and returns the result.
func (c *Client) Incr(key []byte, delta int64) (int64, error) {
	resp, err := c.roundTrip(&proto.Request{Cmd: proto.CmdIncr, Key: key, Delta: delta})
	if err != nil {
		return 0, err
	}
	return resp.Num, nil
}

// MGet fetches several keys in one round trip. The result has one slot
// per requested key; missing keys are nil.
func (c *Client) MGet(keys ...[]byte) ([][]byte, error) {
	resp, err := c.roundTripIdem(&proto.Request{Cmd: proto.CmdMGet, Value: proto.EncodeList(keys)})
	if err != nil {
		return nil, err
	}
	vals, err := proto.DecodeList(resp.Value)
	if err != nil {
		return nil, err
	}
	if len(vals) != len(keys) {
		return nil, proto.ErrBadMessage
	}
	return vals, nil
}

// Stats fetches the server's "name=value" statistics lines.
func (c *Client) Stats() ([]string, error) {
	resp, err := c.roundTripIdem(&proto.Request{Cmd: proto.CmdStats})
	if err != nil {
		return nil, err
	}
	items, err := proto.DecodeList(resp.Value)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = string(it)
	}
	return out, nil
}

// Health fetches the server's per-partition health lines
// ("partN=state scrub=i/total passes=k", optionally "journal=lost").
func (c *Client) Health() ([]string, error) {
	resp, err := c.roundTripIdem(&proto.Request{Cmd: proto.CmdHealth})
	if err != nil {
		return nil, err
	}
	items, err := proto.DecodeList(resp.Value)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = string(it)
	}
	return out, nil
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.roundTripIdem(&proto.Request{Cmd: proto.CmdPing})
	return err
}

// Replicate ships one replication payload (a run of sealed journal
// frames, see internal/repl) and returns the RAW response status plus
// the replica's acked watermark. Statuses are returned uninterpreted —
// the shipper's resync protocol distinguishes gap/fenced/error itself —
// and nothing is ever retried here. Transport failures wrap
// ErrConnection as usual.
func (c *Client) Replicate(payload []byte) (status uint8, watermark uint64, err error) {
	resp, err := c.exchange(&proto.Request{Cmd: proto.CmdReplicate, Value: payload})
	if err != nil {
		return 0, 0, err
	}
	return resp.Status, uint64(resp.Num), nil
}

// ReplAttach asks a node to (re)target its replication stream at addr —
// the control plane's re-protection call after a failover leaves a shard
// unprotected. The node bootstraps the new replica through its snapshot
// path; progress is observable via the repl_* stats lines. Not retried.
func (c *Client) ReplAttach(addr string) error {
	resp, err := c.exchange(&proto.Request{Cmd: proto.CmdReplAttach, Key: []byte(addr)})
	if err != nil {
		return err
	}
	if resp.Status != proto.StatusOK {
		return fmt.Errorf("%w: attach replica %s refused (status %d)", ErrServer, addr, resp.Status)
	}
	return nil
}

// Topology fetches a control-plane supervisor's cluster view: the
// topology version plus one line per shard (internal/ctl formats and
// parses the lines). Idempotent.
func (c *Client) Topology() (version uint64, lines []string, err error) {
	resp, err := c.roundTripIdem(&proto.Request{Cmd: proto.CmdTopology})
	if err != nil {
		return 0, nil, err
	}
	items, err := proto.DecodeList(resp.Value)
	if err != nil {
		return 0, nil, err
	}
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = string(it)
	}
	return uint64(resp.Num), out, nil
}

// Promote asks a replica to adopt fencing epoch `epoch` and start
// accepting writes (the failover/cutover step). Returns the node's
// resulting epoch. Not retried: the caller (cluster failover) handles
// its own races via epoch comparison.
func (c *Client) Promote(epoch uint64) (uint64, error) {
	resp, err := c.exchange(&proto.Request{Cmd: proto.CmdPromote, Delta: int64(epoch)})
	if err != nil {
		return 0, err
	}
	if resp.Status != proto.StatusOK {
		return uint64(resp.Num), fmt.Errorf("%w: promote to epoch %d refused (epoch %d)", ErrServer, epoch, resp.Num)
	}
	return uint64(resp.Num), nil
}
