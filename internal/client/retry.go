// Reconnection and bounded retry. The policy is deliberately narrow:
// transport failures (ErrConnection) are retried only for idempotent
// requests, and attempts are capped with exponential backoff — a dead
// server costs a bounded delay, not a hang, and a flapping one is ridden
// out. Server-reported errors (misses, integrity violations, quarantine)
// always surface immediately: retrying them would at best hide a fault
// the caller must know about. The one exception is StatusRebuilding —
// the server's explicit "not applied, partition healing, come back"
// signal — which is retried for every op kind, mutations included, since
// there is no applied-but-unacknowledged ambiguity to protect against.
package client

import (
	"errors"
	"fmt"
	"net"
	"time"

	"shieldstore/internal/proto"
)

// RetryPolicy bounds transparent reconnect/retry. The zero value
// disables it.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per request (first
	// attempt included). <= 1 disables retry.
	MaxAttempts int
	// Backoff is the delay before the first retry (default 1ms).
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (default 100ms).
	MaxBackoff time.Duration
}

func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 1 }

func (p RetryPolicy) initial() time.Duration {
	if p.Backoff > 0 {
		return p.Backoff
	}
	return time.Millisecond
}

func (p RetryPolicy) cap() time.Duration {
	if p.MaxBackoff > 0 {
		return p.MaxBackoff
	}
	return 100 * time.Millisecond
}

// Retries reports how many reconnect attempts this client has made.
func (c *Client) Retries() uint64 { return c.retries }

// do routes one request through the retry policy. A connection marked
// broken by an earlier failure is re-dialed before sending anything —
// that part is safe even for mutations, since nothing is in flight.
// Replaying the request after a mid-flight failure is reserved for
// idempotent ops.
func (c *Client) do(req *proto.Request, idempotent bool) (*proto.Response, error) {
	pol := c.opts.Retry
	if c.broken {
		if !pol.enabled() || c.addr == "" {
			return nil, fmt.Errorf("%w: connection is broken", ErrConnection)
		}
		if err := c.redial(pol); err != nil {
			return nil, err
		}
	}
	resp, err := c.roundTripOnce(req)
	if err == nil || !pol.enabled() {
		return resp, err
	}
	backoff := pol.initial()
	for attempt := 1; attempt < pol.MaxAttempts; attempt++ {
		if !c.retryable(err, idempotent) {
			return resp, err
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > pol.cap() {
			backoff = pol.cap()
		}
		if c.broken {
			if rerr := c.reconnectOnce(); rerr != nil {
				err = rerr
				continue
			}
		}
		resp, err = c.roundTripOnce(req)
		if err == nil {
			return resp, nil
		}
	}
	return nil, err
}

// retryable decides whether one more attempt may help. A rebuilding
// partition is always worth retrying — the server guarantees the op was
// not applied and the connection is intact, so even mutations replay
// safely. A transport failure is retried only when the request is
// idempotent and the client knows how to re-dial.
func (c *Client) retryable(err error, idempotent bool) bool {
	if errors.Is(err, ErrRebuilding) {
		return true
	}
	return c.broken && idempotent && c.addr != ""
}

// redial re-establishes a broken connection (with backoff) without
// sending any request — used before mutations, which must not replay.
func (c *Client) redial(pol RetryPolicy) error {
	backoff := pol.initial()
	var err error
	for attempt := 1; attempt < pol.MaxAttempts; attempt++ {
		if err = c.reconnectOnce(); err == nil {
			return nil
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > pol.cap() {
			backoff = pol.cap()
		}
	}
	if err == nil {
		err = fmt.Errorf("%w: connection is broken", ErrConnection)
	}
	return err
}

// reconnectOnce dials and re-handshakes a single time, replacing the
// client's connection and channel state on success.
func (c *Client) reconnectOnce() error {
	c.retries++
	c.conn.Close()
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.Timeout)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrConnection, err)
	}
	var ch *proto.Channel
	if c.opts.Secure {
		if c.opts.Timeout > 0 {
			conn.SetDeadline(time.Now().Add(c.opts.Timeout))
		}
		ch, err = proto.ClientHandshake(conn, c.opts.Verifier, c.opts.Measurement)
		if err != nil {
			conn.Close()
			// The handshake rides the same socket; its failure during a
			// flap is a transport-class event.
			return fmt.Errorf("%w: handshake: %v", ErrConnection, err)
		}
	}
	c.conn = conn
	// Bytes still buffered from the dead conn belong to its session and
	// must never be read as replies on this one.
	c.br.Reset(conn)
	c.ch = ch
	c.broken = false
	return nil
}
