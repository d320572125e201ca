// Client-side batching: a Batch call packs N heterogeneous operations
// into one CmdBatch frame (one network round trip, one server-side
// request overhead), and a Pipeline queues ordinary requests and flushes
// them back-to-back so the wire carries many frames per round trip.
package client

import (
	"bytes"
	"time"

	"shieldstore/internal/proto"
)

// Op is one operation of a client batch. Use the Get/Set/Del/Append/Incr
// constructors rather than filling the wire struct by hand.
type Op = proto.BatchOp

// GetOp builds a batch Get.
func GetOp(key []byte) Op { return Op{Cmd: proto.CmdGet, Key: key} }

// SetOp builds a batch Set.
func SetOp(key, value []byte) Op { return Op{Cmd: proto.CmdSet, Key: key, Value: value} }

// DelOp builds a batch Delete.
func DelOp(key []byte) Op { return Op{Cmd: proto.CmdDelete, Key: key} }

// AppendOp builds a batch Append.
func AppendOp(key, suffix []byte) Op { return Op{Cmd: proto.CmdAppend, Key: key, Value: suffix} }

// IncrOp builds a batch Incr.
func IncrOp(key []byte, delta int64) Op { return Op{Cmd: proto.CmdIncr, Key: key, Delta: delta} }

// Result is one per-op outcome of a Batch. Err isolates that op's failure
// (ErrNotFound, ErrIntegrity, ErrServer); the other ops of the batch are
// unaffected.
type Result struct {
	Value []byte
	Num   int64
	Err   error
}

// Batch executes ops in one round trip and returns one result per op, in
// submission order. The call itself only fails on transport or framing
// errors; per-op failures land in the individual results.
func (c *Client) Batch(ops ...Op) ([]Result, error) {
	payload, err := proto.EncodeBatch(ops)
	if err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(&proto.Request{Cmd: proto.CmdBatch, Value: payload})
	if err != nil {
		return nil, err
	}
	wire, err := proto.DecodeBatchResults(resp.Value)
	if err != nil {
		return nil, err
	}
	if len(wire) != len(ops) {
		return nil, proto.ErrBadMessage
	}
	out := make([]Result, len(wire))
	for i := range wire {
		out[i] = Result{Value: wire[i].Value, Num: wire[i].Num, Err: statusErr(wire[i].Status)}
	}
	return out, nil
}

// MSet stores keys[i] = values[i] for all i in one round trip. The first
// per-op failure (if any) is returned.
func (c *Client) MSet(keys, values [][]byte) error {
	if len(keys) != len(values) {
		return proto.ErrBadMessage
	}
	ops := make([]Op, len(keys))
	for i := range keys {
		ops[i] = SetOp(keys[i], values[i])
	}
	rs, err := c.Batch(ops...)
	if err != nil {
		return err
	}
	for i := range rs {
		if rs[i].Err != nil {
			return rs[i].Err
		}
	}
	return nil
}

// statusErr maps a wire status to the client error vocabulary (nil on OK).
func statusErr(status uint8) error {
	switch status {
	case proto.StatusOK:
		return nil
	case proto.StatusNotFound:
		return ErrNotFound
	case proto.StatusIntegrityViolation:
		return ErrIntegrity
	case proto.StatusRebuilding:
		// Per-op rebuilding inside a batch: the envelope status is OK, so
		// the connection-level retry never sees it — callers (and the
		// cluster scatter-gather layer) re-issue the affected ops.
		return ErrRebuilding
	default:
		return ErrServer
	}
}

// Pipeline queues ordinary single-op requests and sends them back-to-back
// on Flush, overlapping N requests on the wire instead of paying one
// round-trip latency each. Frames are sealed at queue time (the channel
// nonce sequence is the queue order), so a Pipeline must not interleave
// with other calls on the same Client until flushed. Not concurrency-safe.
type Pipeline struct {
	c   *Client
	buf bytes.Buffer
	n   int

	// Reused per-frame scratch (encode + seal at queue time, frame read
	// at flush time).
	enc    []byte
	sealed []byte
	frame  []byte
}

// Pipeline starts an empty pipeline on this connection.
func (c *Client) Pipeline() *Pipeline { return &Pipeline{c: c} }

// Len returns the number of queued requests.
func (p *Pipeline) Len() int { return p.n }

// Get queues a get.
func (p *Pipeline) Get(key []byte) { p.push(&proto.Request{Cmd: proto.CmdGet, Key: key}) }

// Set queues a set.
func (p *Pipeline) Set(key, value []byte) {
	p.push(&proto.Request{Cmd: proto.CmdSet, Key: key, Value: value})
}

// Delete queues a delete.
func (p *Pipeline) Delete(key []byte) { p.push(&proto.Request{Cmd: proto.CmdDelete, Key: key}) }

// Append queues an append.
func (p *Pipeline) Append(key, suffix []byte) {
	p.push(&proto.Request{Cmd: proto.CmdAppend, Key: key, Value: suffix})
}

// Incr queues an increment.
func (p *Pipeline) Incr(key []byte, delta int64) {
	p.push(&proto.Request{Cmd: proto.CmdIncr, Key: key, Delta: delta})
}

func (p *Pipeline) push(req *proto.Request) {
	p.enc = proto.AppendRequest(p.enc[:0], req)
	wire := p.enc
	if p.c.ch != nil {
		p.sealed = p.c.ch.SealTo(p.sealed[:0], p.enc)
		wire = p.sealed
	}
	// Buffered WriteFrame cannot fail.
	_ = proto.WriteFrame(&p.buf, wire)
	p.n++
	p.enc, p.sealed = proto.Retain(p.enc), proto.Retain(p.sealed)
}

// Flush writes every queued frame in one Write, then reads the replies in
// order through the client's buffered reader, so replies that arrive
// together cost one read between them. Results follow queue order;
// per-op failures are isolated in the individual results. The pipeline
// is reset and reusable afterwards. A failed Flush poisons the client's
// connection, like a failed round trip.
func (p *Pipeline) Flush() ([]Result, error) {
	n := p.n
	if n == 0 {
		return nil, nil
	}
	c := p.c
	if c.opts.Timeout > 0 {
		// One deadline spans the burst and all its replies.
		c.conn.SetDeadline(time.Now().Add(c.opts.Timeout))
	}
	if _, err := c.conn.Write(p.buf.Bytes()); err != nil {
		c.broken = true
		return nil, err
	}
	p.buf.Reset()
	p.n = 0
	out := make([]Result, n)
	for i := 0; i < n; i++ {
		frame, err := proto.ReadFrameInto(c.br, p.frame[:0])
		if err != nil {
			c.broken = true
			return nil, err
		}
		p.frame = frame
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
		out[i] = Result{Value: resp.Value, Num: resp.Num, Err: statusErr(resp.Status)}
	}
	p.frame = proto.Retain(p.frame)
	return out, nil
}
