package controlplane

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	mrand "math/rand"
	"net"
	"sync"
	"time"
)

// Client is the site agent's control-plane endpoint: it submits transfer
// requests and receives rate allocations, which a real deployment would
// translate into host rate limits (the paper uses Linux Traffic Control).
//
// The client is resilient by construction (§3.4: "applications and
// brokers deal with a controller failure by retrying"): every RPC carries
// a context whose deadline maps onto socket deadlines, a lost connection
// is re-dialed with capped exponential backoff and jitter, in-flight
// submissions are retried under an idempotency token so a retry can never
// create a duplicate transfer, and periodic heartbeats detect a dead
// controller even when no RPC is outstanding.
type Client struct {
	addr string
	o    options

	mu       sync.Mutex
	cur      *liveConn     // nil while disconnected
	curCh    chan struct{} // closed+replaced whenever cur or terminal changes
	closed   bool
	terminal error // set when reconnecting can never succeed

	closeCh chan struct{}
	wg      sync.WaitGroup

	// rpcMu serializes RPCs: the protocol correlates replies by Seq, and
	// one-at-a-time keeps retry/reconnect interleavings simple.
	rpcMu sync.Mutex
	seq   uint64

	tokenPrefix string
	tokenSeq    uint64

	// rng drives backoff and retry-after jitter; rngMu serializes it
	// between the manager goroutine and RPC callers backing off after an
	// overloaded rejection.
	rngMu sync.Mutex
	rng   *mrand.Rand
}

// liveConn is one TCP connection's lifetime: its write lock, reply
// channel, and failure latch.
type liveConn struct {
	conn net.Conn

	wmu sync.Mutex // serializes writes (RPCs vs heartbeats)

	replies chan *Message

	failOnce sync.Once
	down     chan struct{}
	err      error

	beatMu   sync.Mutex
	lastBeat time.Time
}

func newLiveConn(conn net.Conn) *liveConn {
	return &liveConn{
		conn:     conn,
		replies:  make(chan *Message, 8),
		down:     make(chan struct{}),
		lastBeat: time.Now(),
	}
}

// fail latches the connection's fatal error and closes it; the first
// caller wins.
func (lc *liveConn) fail(err error) {
	lc.failOnce.Do(func() {
		lc.err = err
		lc.conn.Close()
		close(lc.down)
	})
}

func (lc *liveConn) touch() {
	lc.beatMu.Lock()
	lc.lastBeat = time.Now()
	lc.beatMu.Unlock()
}

func (lc *liveConn) sinceBeat() time.Duration {
	lc.beatMu.Lock()
	defer lc.beatMu.Unlock()
	return time.Since(lc.lastBeat)
}

// send writes one frame under the write lock with a write deadline; a
// failed write kills the connection.
func (lc *liveConn) send(m *Message, deadline time.Time) error {
	lc.wmu.Lock()
	defer lc.wmu.Unlock()
	lc.conn.SetWriteDeadline(deadline)
	if err := WriteMsg(lc.conn, m); err != nil {
		lc.fail(fmt.Errorf("controlplane: write: %w", err))
		return err
	}
	return nil
}

// Dial connects to the controller and performs the hello/welcome
// handshake. If ctx carries a deadline, transient connection failures are
// retried with backoff until it expires; without a deadline Dial makes a
// single attempt (fail-fast for interactive use). A version mismatch is
// terminal either way.
func Dial(ctx context.Context, addr string, opts ...Option) (*Client, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	var pre [6]byte
	if _, err := rand.Read(pre[:]); err != nil {
		return nil, fmt.Errorf("controlplane: token prefix: %w", err)
	}
	c := &Client{
		addr:        addr,
		o:           o,
		curCh:       make(chan struct{}),
		closeCh:     make(chan struct{}),
		tokenPrefix: hex.EncodeToString(pre[:]),
		rng:         mrand.New(mrand.NewSource(o.jitterSeed)),
	}
	_, hasDeadline := ctx.Deadline()
	attempt := 0
	var lc *liveConn
	for {
		var err error
		lc, err = c.connect(ctx)
		if err == nil {
			break
		}
		if !hasDeadline || isTerminal(err) || ctx.Err() != nil {
			return nil, err
		}
		attempt++
		select {
		case <-time.After(c.backoff(attempt)):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c.setCur(lc)
	c.wg.Add(1)
	go c.manage(lc)
	return c, nil
}

// connect dials and runs the handshake, then starts the connection's read
// and heartbeat goroutines.
func (c *Client) connect(ctx context.Context) (*liveConn, error) {
	hctx := ctx
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		hctx, cancel = context.WithTimeout(ctx, c.o.rpcTimeout)
		defer cancel()
	}
	conn, err := c.o.dialer(hctx, c.addr)
	if err != nil {
		return nil, err
	}
	if dl, ok := hctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	hello := &Message{Type: MsgHello, Site: c.o.site, Version: ProtoVersion}
	if err := WriteMsg(conn, hello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("controlplane: hello: %w", err)
	}
	m, err := ReadMsg(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("controlplane: handshake: %w", err)
	}
	switch m.Type {
	case MsgWelcome:
	case MsgError:
		conn.Close()
		return nil, newServerError(m)
	default:
		conn.Close()
		return nil, fmt.Errorf("controlplane: unexpected handshake reply %q", m.Type)
	}
	// Snapshot resync: replay our pending-transfer state in the same
	// round-trip budget as the handshake, so a reconnect (or a failover to
	// a promoted standby) converges without resubmitting anything. The
	// handshake deadline still covers this exchange.
	if err := WriteMsg(conn, &Message{Type: MsgResync, Seq: c.nextSeq(), Site: c.o.site}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("controlplane: resync: %w", err)
	}
	sm, err := ReadMsg(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("controlplane: resync reply: %w", err)
	}
	if sm.Type != MsgSnapshot {
		conn.Close()
		if sm.Type == MsgError {
			return nil, newServerError(sm)
		}
		return nil, fmt.Errorf("controlplane: unexpected resync reply %q", sm.Type)
	}
	if c.o.onResync != nil && sm.Snapshot != nil {
		c.o.onResync(sm.Snapshot)
	}
	conn.SetDeadline(time.Time{})
	lc := newLiveConn(conn)
	c.wg.Add(1)
	go c.readLoop(lc)
	if c.o.heartbeat > 0 {
		c.wg.Add(1)
		go c.heartbeatLoop(lc)
	}
	return lc, nil
}

// newServerError converts a MsgError into the typed client-side error,
// carrying the controller's retry-after hint when present.
func newServerError(m *Message) *ServerError {
	return &ServerError{
		Code:       m.Code,
		Msg:        m.Err,
		RetryAfter: time.Duration(m.RetryAfterMs) * time.Millisecond,
	}
}

// isTerminal reports whether an error means reconnecting can never help.
func isTerminal(err error) bool {
	var se *ServerError
	if errors.As(err, &se) {
		return se.Terminal()
	}
	return false
}

// readLoop demultiplexes inbound frames until the connection dies. Frame
// decode errors are NOT swallowed: they latch into lc.err and surface
// exactly once through the WithOnDisconnect hook when the manager observes
// the dead connection.
func (c *Client) readLoop(lc *liveConn) {
	defer c.wg.Done()
	for {
		m, err := ReadMsg(lc.conn)
		if err != nil {
			lc.fail(err)
			return
		}
		lc.touch()
		switch m.Type {
		case MsgRates:
			if c.o.onRates != nil {
				c.o.onRates(m.Rates)
			}
		case MsgPong:
			// touch above is the whole point.
		case MsgPing:
			// The controller may probe us; answer so its read deadline
			// sees a live client.
			lc.send(&Message{Type: MsgPong, Seq: m.Seq}, time.Now().Add(5*time.Second))
		case MsgSubmitAck, MsgStatusReply, MsgAck, MsgError, MsgSnapshot:
			select {
			case lc.replies <- m:
			default: // no RPC waiting; stale reply
			}
		}
	}
}

// heartbeatLoop pings the controller every interval and declares the
// connection dead after 3 silent intervals.
func (c *Client) heartbeatLoop(lc *liveConn) {
	defer c.wg.Done()
	t := time.NewTicker(c.o.heartbeat)
	defer t.Stop()
	for {
		select {
		case <-lc.down:
			return
		case <-c.closeCh:
			return
		case <-t.C:
			if lc.sinceBeat() > 3*c.o.heartbeat {
				lc.fail(fmt.Errorf("controlplane: heartbeat timeout (no traffic for %s)", lc.sinceBeat().Round(time.Millisecond)))
				return
			}
			lc.send(&Message{Type: MsgPing, Seq: c.nextSeq()}, time.Now().Add(c.o.heartbeat))
		}
	}
}

// manage owns the reconnection loop: it waits for the current connection
// to die, reports the disconnect once, and re-dials with capped
// exponential backoff and jitter until it succeeds, Close is called, the
// error is terminal, or WithRetryMax attempts are exhausted.
func (c *Client) manage(lc *liveConn) {
	defer c.wg.Done()
	for {
		select {
		case <-lc.down:
		case <-c.closeCh:
			return
		}
		c.clearCur()
		if c.isClosed() {
			return
		}
		c.noteDisconnect(lc.err)

		attempt := 0
		for {
			attempt++
			if c.o.retryMax > 0 && attempt > c.o.retryMax {
				c.setTerminal(fmt.Errorf("controlplane: gave up after %d reconnect attempts: %w", c.o.retryMax, lc.err))
				return
			}
			select {
			case <-time.After(c.backoff(attempt)):
			case <-c.closeCh:
				return
			}
			cctx, cancel := context.WithTimeout(context.Background(), c.o.rpcTimeout)
			nlc, err := c.connect(cctx)
			cancel()
			if c.isClosed() {
				if err == nil {
					nlc.fail(fmt.Errorf("controlplane: client closed"))
				}
				return
			}
			if err != nil {
				if isTerminal(err) {
					c.setTerminal(err)
					return
				}
				continue
			}
			lc = nlc
			c.setCur(nlc)
			break
		}
	}
}

// backoff returns the wait before reconnection attempt n (1-based):
// base·2^(n-1) capped at max, jittered to 50–150%.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.o.backoffBase
	for i := 1; i < attempt && d < c.o.backoffMax; i++ {
		d *= 2
	}
	if d > c.o.backoffMax {
		d = c.o.backoffMax
	}
	half := d / 2
	c.rngMu.Lock()
	j := time.Duration(c.rng.Int63n(int64(d) + 1))
	c.rngMu.Unlock()
	return half + j
}

// overloadDelay turns a controller backpressure rejection into the wait
// before the retry: at least the server's retry-after hint (or the
// backoff base when the hint is missing), plus up to 50% jitter so a
// fleet of shed clients does not return in one synchronized wave.
func (c *Client) overloadDelay(se *ServerError) time.Duration {
	d := se.RetryAfter
	if d <= 0 {
		d = c.o.backoffBase
	}
	c.rngMu.Lock()
	j := time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.rngMu.Unlock()
	return d + j
}

func (c *Client) setCur(lc *liveConn) {
	c.mu.Lock()
	c.cur = lc
	close(c.curCh)
	c.curCh = make(chan struct{})
	c.mu.Unlock()
}

func (c *Client) clearCur() {
	c.mu.Lock()
	c.cur = nil
	c.mu.Unlock()
}

func (c *Client) setTerminal(err error) {
	c.mu.Lock()
	c.terminal = err
	close(c.curCh)
	c.curCh = make(chan struct{})
	c.mu.Unlock()
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// noteDisconnect surfaces a dead connection exactly once: through the
// WithOnDisconnect hook when registered, otherwise a single log line (so
// a frame-decode error never spams per-frame and never vanishes).
func (c *Client) noteDisconnect(err error) {
	if c.o.onDisconnect != nil {
		c.o.onDisconnect(err)
		return
	}
	log.Printf("controlplane: connection to %s lost: %v (reconnecting)", c.addr, err)
}

func (c *Client) nextSeq() uint64 {
	c.mu.Lock()
	c.seq++
	s := c.seq
	c.mu.Unlock()
	return s
}

func (c *Client) nextToken() string {
	c.mu.Lock()
	c.tokenSeq++
	n := c.tokenSeq
	c.mu.Unlock()
	return fmt.Sprintf("%s-%d", c.tokenPrefix, n)
}

// waitConn blocks until a live connection other than `not` exists or the
// context, Close, or a terminal error intervenes. Passing the connection
// a caller just watched die avoids spinning on the corpse before the
// manager replaces it.
func (c *Client) waitConn(ctx context.Context, not *liveConn) (*liveConn, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, fmt.Errorf("controlplane: client closed")
		}
		if c.terminal != nil {
			err := c.terminal
			c.mu.Unlock()
			return nil, err
		}
		if c.cur != nil && c.cur != not {
			lc := c.cur
			c.mu.Unlock()
			return lc, nil
		}
		ch := c.curCh
		c.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-c.closeCh:
			return nil, fmt.Errorf("controlplane: client closed")
		}
	}
}

// rpc performs one request/reply exchange, transparently retrying across
// reconnections until the context expires. The context deadline maps to
// the socket write deadline; the reply wait is bounded by the same
// context. Requests must be idempotent (Submit carries a token for this).
func (c *Client) rpc(ctx context.Context, req *Message, want MsgType) (*Message, error) {
	c.rpcMu.Lock()
	defer c.rpcMu.Unlock()
	if _, ok := ctx.Deadline(); !ok && c.o.rpcTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.o.rpcTimeout)
		defer cancel()
	}
	req.Seq = c.nextSeq()
	wdl, _ := ctx.Deadline()
	var last *liveConn
	for {
		lc, err := c.waitConn(ctx, last)
		if err != nil {
			return nil, err
		}
		last = lc
	send:
		if err := lc.send(req, wdl); err != nil {
			continue // connection died; waitConn blocks until reconnect
		}
	recv:
		for {
			select {
			case m := <-lc.replies:
				if m.Seq != req.Seq {
					continue recv // stale reply from an earlier attempt
				}
				if m.Type == MsgError {
					se := newServerError(m)
					if se.Code == ErrCodeOverloaded {
						// Backpressure: honor the controller's retry-after
						// hint (with jitter), then resend on the same
						// connection — idempotency tokens make the resend
						// safe even if it raced a commit.
						select {
						case <-time.After(c.overloadDelay(se)):
							goto send
						case <-ctx.Done():
							return nil, ctx.Err()
						case <-c.closeCh:
							return nil, fmt.Errorf("controlplane: client closed")
						}
					}
					return nil, se
				}
				if m.Type != want {
					return nil, fmt.Errorf("controlplane: unexpected reply %q to %q", m.Type, req.Type)
				}
				return m, nil
			case <-lc.down:
				break recv // retry on the next connection
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-c.closeCh:
				return nil, fmt.Errorf("controlplane: client closed")
			}
		}
	}
}

// Submit sends a transfer request and waits for its controller-assigned
// id. Submission is idempotent across retries and controller failovers: a
// client-generated token identifies the request, so a resubmission after
// a lost ack returns the original id instead of creating a duplicate.
func (c *Client) Submit(ctx context.Context, r WireRequest) (int, error) {
	m, err := c.rpc(ctx, &Message{Type: MsgSubmit, Request: &r, Token: c.nextToken()}, MsgSubmitAck)
	if err != nil {
		return 0, err
	}
	return m.ID, nil
}

// Status queries controller status.
func (c *Client) Status(ctx context.Context) (*WireStatus, error) {
	m, err := c.rpc(ctx, &Message{Type: MsgStatus}, MsgStatusReply)
	if err != nil {
		return nil, err
	}
	return m.Status, nil
}

// ReportFiberFailure notifies the controller of a failed fiber and waits
// for the acknowledgement. Reporting an already-failed fiber succeeds
// (the report is idempotent), so retries after a lost ack are safe.
func (c *Client) ReportFiberFailure(ctx context.Context, fiberID int) error {
	_, err := c.rpc(ctx, &Message{Type: MsgLinkFailure, FiberID: fiberID}, MsgAck)
	return err
}

// Close terminates the client: the connection is torn down, reconnection
// stops, and pending RPCs fail promptly.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	lc := c.cur
	c.mu.Unlock()
	close(c.closeCh)
	if lc != nil {
		lc.fail(fmt.Errorf("controlplane: client closed"))
	}
	c.wg.Wait()
}
