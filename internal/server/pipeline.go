// Pipelined connection handling: each connection is served by a
// decode/submit reader and an in-order writer goroutine joined by a
// bounded response queue. The reader reads frames through a
// per-connection bufio.Reader — one read(2) brings in a whole small frame,
// or several pipelined ones — copies each into a pooled buffer, and
// submits operations to the engine's partition workers without waiting,
// so a client's pipelined frames execute concurrently across partitions;
// the writer resolves each request in submission order, which keeps
// responses (and the channel's nonce sequence) ordered no matter how
// execution interleaved. Writes coalesce in a bufio.Writer that flushes
// when the queue runs dry, so a burst of responses shares one syscall.
// See DESIGN.md §9 "Exitless dispatch".
package server

import (
	"bufio"
	"net"
	"sync"
	"time"

	"shieldstore/internal/core"
	"shieldstore/internal/proto"
	"shieldstore/internal/sim"
)

// Defaults for Config.PipelineDepth and Config.WriteBuffer.
const (
	defaultPipelineDepth = 32
	defaultWriteBuffer   = 32 << 10
)

// pending is one request travelling from the reader to the writer.
// Exactly one of call, bcall, or resp is set. The frame buffer is held
// until the writer resolves the request: async submissions reference the
// frame's bytes (zero-copy key/value views), so it must not be recycled
// earlier.
type pending struct {
	fp    *[]byte         // pooled frame buffer backing the request views
	cmd   proto.Command   // decoded command (drives response mapping)
	call  *core.Call      // in-flight single op (async engines)
	bcall *core.BatchCall // in-flight batch / MGet (async engines)
	ops   []core.BatchOp  // batch ops (kinds drive result mapping)
	resp  proto.Response  // resolved response (sync path)
}

var pendingPool = sync.Pool{New: func() any { return new(pending) }}

// framePool recycles per-request frame buffers. Holding *[]byte keeps
// Put allocation-free; the pooled capacity grows to the workload's frame
// size, up to proto.MaxKeptScratch (putFrame).
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// putFrame recycles a frame buffer, unless it grew past
// proto.MaxKeptScratch: the pool must not keep a rare huge frame (a
// replication bootstrap chunk, a large batch) alive.
func putFrame(fp *[]byte) {
	if cap(*fp) > proto.MaxKeptScratch {
		return
	}
	framePool.Put(fp)
}

// connReader reads, decrypts and decodes frames, hands each request to
// the engine (asynchronously when it supports it), and enqueues the
// in-flight slot on the bounded writer queue — the queue's capacity is
// the connection's pipeline depth, and enqueueing is the only place the
// reader blocks on the writer. Frames are read through a bufio.Reader
// created here, after the handshake (which reads the raw conn).
//
//ss:ecall
//ss:attacker — frames arrive from the adversary-controlled socket.
func (s *Server) connReader(conn net.Conn, ch *proto.Channel, wq chan<- *pending, m *sim.Meter) error {
	model := s.cfg.Enclave.Model()
	ae, _ := s.cfg.Engine.(AsyncEngine)
	br := proto.NewFrameReader(conn)
	var req proto.Request
	for {
		// Waiting for the next request runs under the idle deadline;
		// once a frame header arrives, the payload must follow within the
		// (typically much shorter) read deadline — a client dribbling one
		// byte at a time cannot pin this goroutine. Buffering keeps the
		// guard: payload bytes that came in with the header are already
		// in the buffer, and every further read runs under the read
		// deadline.
		if t := s.cfg.IdleTimeout; t > 0 {
			conn.SetReadDeadline(time.Now().Add(t))
		}
		n, err := proto.ReadFrameHeader(br)
		if err != nil {
			return err
		}
		if t := s.cfg.ReadTimeout; t > 0 {
			conn.SetReadDeadline(time.Now().Add(t))
		}
		fp := framePool.Get().(*[]byte)
		frame, err := proto.ReadFramePayloadInto(br, n, (*fp)[:0])
		if err != nil {
			putFrame(fp)
			return err
		}
		*fp = frame
		s.chargeNet(m, len(frame))
		payload := frame
		if ch != nil {
			payload, err = ch.OpenInPlace(frame)
			if err != nil {
				putFrame(fp)
				return err
			}
			m.Charge(model.AES(len(frame)) + model.CMAC(len(frame)))
		}
		pd := pendingPool.Get().(*pending)
		pd.fp = fp
		s.dispatch(pd, ae, m, payload, &req)
		wq <- pd
	}
}

// dispatch decodes one request payload into pd: submitted to an async
// engine when possible, executed synchronously otherwise (control
// commands, malformed frames, engines without async support).
func (s *Server) dispatch(pd *pending, ae AsyncEngine, m *sim.Meter, payload []byte, req *proto.Request) {
	if err := proto.DecodeRequestInto(req, payload); err != nil {
		pd.resp = proto.Response{Status: proto.StatusError}
		return
	}
	pd.cmd = req.Cmd
	if ae == nil {
		pd.resp = *s.execute(m, req)
		return
	}
	if isMutation(req.Cmd) && !s.writable() {
		pd.resp = proto.Response{Status: proto.StatusFenced}
		return
	}
	switch req.Cmd {
	case proto.CmdGet:
		pd.call = ae.Submit(m, core.BatchGet, req.Key, nil, 0)
	case proto.CmdSet:
		pd.call = ae.Submit(m, core.BatchSet, req.Key, req.Value, 0)
	case proto.CmdDelete:
		pd.call = ae.Submit(m, core.BatchDelete, req.Key, nil, 0)
	case proto.CmdAppend:
		pd.call = ae.Submit(m, core.BatchAppend, req.Key, req.Value, 0)
	case proto.CmdIncr:
		pd.call = ae.Submit(m, core.BatchIncr, req.Key, nil, req.Delta)
	case proto.CmdMGet:
		keys, err := proto.DecodeList(req.Value)
		if err != nil {
			pd.resp = proto.Response{Status: proto.StatusError}
			return
		}
		ops := make([]core.BatchOp, len(keys))
		for i, k := range keys {
			ops[i] = core.BatchOp{Kind: core.BatchGet, Key: k}
		}
		pd.ops = ops
		pd.bcall = ae.SubmitBatch(m, ops)
	case proto.CmdBatch:
		wireOps, err := proto.DecodeBatchView(req.Value)
		if err != nil {
			pd.resp = proto.Response{Status: proto.StatusError}
			return
		}
		ops := make([]core.BatchOp, len(wireOps))
		hasMutation := false
		for i := range wireOps {
			ops[i] = core.BatchOp{
				Kind:  batchKind(wireOps[i].Cmd),
				Key:   wireOps[i].Key,
				Value: wireOps[i].Value,
				Delta: wireOps[i].Delta,
			}
			if ops[i].Kind != core.BatchGet {
				hasMutation = true
			}
		}
		if hasMutation && !s.writable() {
			// Fence the mutations, serve the reads — the sync path does
			// the per-op split.
			pd.resp = *s.execute(m, req)
			return
		}
		pd.ops = ops
		pd.bcall = ae.SubmitBatch(m, ops)
	default:
		// Ping, Stats, unknown commands: no engine work to overlap.
		pd.resp = *s.execute(m, req)
	}
}

// writerScratch is the writer's reused encode state: response bytes,
// sealed frame, and the batch sub-payload buffers.
type writerScratch struct {
	enc    []byte
	sealed []byte
	sub    []byte
	prs    []proto.BatchResult
	vals   [][]byte
}

// connWriter resolves queued requests in submission order and writes
// their responses. After a write error it keeps draining the queue —
// every in-flight call must still be waited on — but stops writing and
// closes the connection so the reader unblocks.
//
//ss:ocall
func (s *Server) connWriter(conn net.Conn, ch *proto.Channel, wq <-chan *pending, m *sim.Meter) error {
	model := s.cfg.Enclave.Model()
	size := s.cfg.WriteBuffer
	if size <= 0 {
		size = defaultWriteBuffer
	}
	bw := bufio.NewWriterSize(conn, size)
	var sc writerScratch
	var werr error
	for pd := range wq {
		resp := s.resolvePending(pd, &sc)
		if werr == nil {
			out := proto.AppendResponse(sc.enc[:0], &resp)
			sc.enc = out
			wire := out
			if ch != nil {
				m.Charge(model.AES(len(out)) + model.CMAC(len(out)))
				sc.sealed = ch.SealTo(sc.sealed[:0], out)
				wire = sc.sealed
			}
			s.chargeNet(m, len(wire))
			if t := s.cfg.WriteTimeout; t > 0 {
				conn.SetWriteDeadline(time.Now().Add(t))
			}
			if err := proto.WriteFrame(bw, wire); err != nil {
				werr = err
			} else if len(wq) == 0 {
				// Queue ran dry: everything buffered shares this flush.
				werr = bw.Flush()
			}
			if werr != nil {
				conn.Close() // unblock the reader
			}
		}
		releasePending(pd)
	}
	if werr == nil {
		if t := s.cfg.WriteTimeout; t > 0 {
			conn.SetWriteDeadline(time.Now().Add(t))
		}
		werr = bw.Flush()
	}
	return werr
}

// resolvePending waits for pd's engine work when it was submitted
// asynchronously and builds the wire response. Values in the returned
// response may alias the writer's scratch; they are consumed (encoded)
// before the next pending resolves.
func (s *Server) resolvePending(pd *pending, sc *writerScratch) proto.Response {
	switch {
	case pd.call != nil:
		val, num, err := pd.call.Wait()
		pd.call = nil
		if err != nil {
			return proto.Response{Status: statusFor(err)}
		}
		resp := proto.Response{Status: proto.StatusOK}
		switch pd.cmd {
		case proto.CmdGet:
			resp.Value = val
		case proto.CmdIncr:
			resp.Num = num
		}
		return resp
	case pd.bcall != nil:
		rs := pd.bcall.Wait()
		pd.bcall = nil
		if pd.cmd == proto.CmdMGet {
			return s.mgetResponse(rs, sc)
		}
		return s.batchResponse(pd.ops, rs, sc)
	default:
		return pd.resp
	}
}

// mgetResponse maps per-key batch results to the MGet list payload:
// misses become nil entries, any other error fails the whole MGet (the
// seed's semantics).
func (s *Server) mgetResponse(rs []core.BatchResult, sc *writerScratch) proto.Response {
	sc.vals = sc.vals[:0]
	for i := range rs {
		switch statusFor(rs[i].Err) {
		case proto.StatusOK:
			v := rs[i].Val
			if v == nil {
				v = []byte{}
			}
			sc.vals = append(sc.vals, v)
		case proto.StatusNotFound:
			sc.vals = append(sc.vals, nil)
		default:
			return proto.Response{Status: statusFor(rs[i].Err)}
		}
	}
	sc.sub = proto.AppendList(sc.sub[:0], sc.vals)
	return proto.Response{Status: proto.StatusOK, Value: sc.sub}
}

// batchResponse maps core batch results to the wire result vector, with
// per-op statuses (one miss never fails the rest — same mapping as
// runBatch).
func (s *Server) batchResponse(ops []core.BatchOp, rs []core.BatchResult, sc *writerScratch) proto.Response {
	sc.prs = sc.prs[:0]
	for i := range rs {
		pr := proto.BatchResult{Status: statusFor(rs[i].Err)}
		if rs[i].Err == nil {
			pr.Num = rs[i].Num
			if ops[i].Kind == core.BatchGet {
				pr.Value = rs[i].Val
				if pr.Value == nil {
					pr.Value = []byte{}
				}
			}
		}
		sc.prs = append(sc.prs, pr)
	}
	sc.sub = proto.AppendBatchResults(sc.sub[:0], sc.prs)
	return proto.Response{Status: proto.StatusOK, Value: sc.sub}
}

// releasePending recycles the slot and its frame buffer. Only called
// after the request is fully resolved — nothing references the frame's
// bytes past this point.
func releasePending(pd *pending) {
	if pd.fp != nil {
		putFrame(pd.fp)
		pd.fp = nil
	}
	pd.call, pd.bcall = nil, nil
	pd.ops = nil
	pd.resp = proto.Response{}
	pd.cmd = 0
	pendingPool.Put(pd)
}
