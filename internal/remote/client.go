package remote

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hybrid"
	"repro/internal/render"
)

// Client is one session against a Service. A single TCP connection
// carries any number of concurrent requests — each tagged with a
// request ID and matched to its response by a background read loop —
// so a viewer that fetches ahead overlaps WAN fetches instead of
// serializing them. Methods are safe for concurrent use.
type Client struct {
	conn       net.Conn
	reqTimeout time.Duration
	hbInterval time.Duration
	hbIdle     time.Duration
	wmu        sync.Mutex
	bw         *bufio.Writer

	bandwidthBps atomic.Int64
	lastInbound  atomic.Int64 // unix nanos of the last inbound message

	mu      sync.Mutex
	pending map[uint64]chan message
	subs    map[uint64]*Subscription
	nextID  uint64
	readErr error
	done    chan struct{}
}

// ErrClientClosed marks a Client whose connection is gone — closed by
// the caller, lost to the transport, or declared dead by the heartbeat
// watchdog. Every call made afterwards fails fast with an error
// wrapping it, so callers (and ReconnectClient) can classify
// retryable-by-redial transport loss with errors.Is instead of
// pattern-matching write errors. IsTransient reports true for it: the
// client object is dead, but a fresh dial may well succeed.
var ErrClientClosed = errors.New("remote: client closed")

// DefaultRequestTimeout bounds a context-free request round trip when
// ClientOptions.RequestTimeout is left zero: a hung or wedged server
// fails the call instead of parking it forever.
const DefaultRequestTimeout = 30 * time.Second

// DefaultHeartbeatInterval is the v5 heartbeat cadence when
// ClientOptions.HeartbeatInterval is left zero. It must sit well
// inside the server's idle timeout (DefaultServiceIdleTimeout), so a
// purely-listening subscriber — which otherwise never writes — keeps
// refreshing the server's read deadline.
const DefaultHeartbeatInterval = 15 * time.Second

// ClientOptions tune a client session.
type ClientOptions struct {
	// RequestTimeout bounds each round trip made without a caller
	// context (List, FetchFrame, Render, FetchFrameDelta): if no reply
	// arrives within it, the call fails with a timeout error instead
	// of blocking forever on a hung server. 0 means
	// DefaultRequestTimeout; negative disables the bound (raise or
	// disable it when SetBandwidth models links slower than a frame
	// per timeout). Context-taking calls (Compute, Kernels) are
	// governed by their context alone.
	RequestTimeout time.Duration

	// HeartbeatInterval is the cadence of the background Ping loop
	// (protocol v5). Pings are sent unconditionally — not only when
	// idle — so the server's read deadline keeps refreshing even for a
	// subscriber that never issues requests. 0 means
	// DefaultHeartbeatInterval; negative disables the loop (and with
	// it IdleTimeout dead-peer detection).
	HeartbeatInterval time.Duration

	// IdleTimeout is how long the heartbeat watchdog tolerates total
	// inbound silence (no responses, no notifies, no pongs) before
	// declaring the peer dead and severing the connection with an
	// error wrapping ErrClientClosed. 0 means 3× the heartbeat
	// interval; negative disables the check while keeping pings
	// flowing.
	IdleTimeout time.Duration
}

func (o ClientOptions) requestTimeout() time.Duration {
	switch {
	case o.RequestTimeout > 0:
		return o.RequestTimeout
	case o.RequestTimeout < 0:
		return 0
	default:
		return DefaultRequestTimeout
	}
}

func (o ClientOptions) heartbeatInterval() time.Duration {
	switch {
	case o.HeartbeatInterval > 0:
		return o.HeartbeatInterval
	case o.HeartbeatInterval < 0:
		return 0
	default:
		return DefaultHeartbeatInterval
	}
}

func (o ClientOptions) heartbeatIdle() time.Duration {
	switch {
	case o.IdleTimeout > 0:
		return o.IdleTimeout
	case o.IdleTimeout < 0:
		return 0
	default:
		return 3 * o.heartbeatInterval()
	}
}

// Dial connects and runs the version handshake with default options.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, ClientOptions{})
}

// DialWith is Dial with explicit options.
func DialWith(addr string, opts ClientOptions) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("remote: %w", err)
	}
	return NewClientConn(conn, opts)
}

// NewClientConn runs the version handshake over an established
// connection and returns the client session for it. It is the seam
// under Dial for callers that own the transport — a fleet's custom
// dialer, or a test wrapping the connection in a fault injector. On
// error the connection is closed.
func NewClientConn(conn net.Conn, opts ClientOptions) (*Client, error) {
	if err := clientHello(conn); err != nil {
		conn.Close()
		return nil, err
	}
	c := &Client{
		conn:       conn,
		reqTimeout: opts.requestTimeout(),
		hbInterval: opts.heartbeatInterval(),
		hbIdle:     opts.heartbeatIdle(),
		bw:         bufio.NewWriterSize(conn, 1<<16),
		pending:    make(map[uint64]chan message),
		subs:       make(map[uint64]*Subscription),
		done:       make(chan struct{}),
	}
	c.lastInbound.Store(time.Now().UnixNano())
	go c.readLoop()
	if c.hbInterval > 0 {
		go c.heartbeatLoop()
	}
	return c, nil
}

// SetBandwidth throttles response reads to bps bytes per second,
// modeling the wide-area link (<= 0 disables).
func (c *Client) SetBandwidth(bps int64) { c.bandwidthBps.Store(bps) }

// Close severs the connection; in-flight and later requests fail
// promptly with an error wrapping ErrClientClosed.
func (c *Client) Close() error {
	c.fail(ErrClientClosed)
	return c.conn.Close()
}

// fail records the client's terminal error; only the first one sticks,
// so a caller-initiated Close isn't relabelled as the transport error
// it provokes.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	c.mu.Unlock()
}

// heartbeatLoop is the protocol-v5 liveness probe: a Ping every
// interval (unconditionally — the pings are what keep the server's
// idle deadline at bay for a subscriber that never writes), and a
// watchdog that declares the peer dead after hbIdle of total inbound
// silence. The pong — like every inbound message — refreshes
// lastInbound in readLoop; heartbeat pings ride request ID 0, which
// roundTrip never allocates, so the replies need no pending entry.
func (c *Client) heartbeatLoop() {
	t := time.NewTicker(c.hbInterval)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
		}
		if c.hbIdle > 0 {
			idle := time.Since(time.Unix(0, c.lastInbound.Load()))
			if idle > c.hbIdle {
				c.fail(fmt.Errorf("remote: peer silent for %v (heartbeat timeout): %w", idle.Round(time.Millisecond), ErrClientClosed))
				c.conn.Close()
				return
			}
		}
		c.wmu.Lock()
		err := writeMessage(c.bw, 0, opPing, nil)
		c.wmu.Unlock()
		if err != nil {
			c.fail(fmt.Errorf("remote: heartbeat write: %w (%w)", err, ErrClientClosed))
			c.conn.Close()
			return
		}
	}
}

// readLoop routes every inbound message to its requester (or
// subscription) until the connection dies.
func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, 1<<16)
	for {
		msg, err := readMessage(br, c.bandwidthBps.Load())
		if err != nil {
			c.fail(fmt.Errorf("remote: connection lost: %w (%w)", err, ErrClientClosed))
			close(c.done)
			return
		}
		c.lastInbound.Store(time.Now().UnixNano())
		if msg.op == opNotify {
			frames, err := decodeCount(msg.payload)
			if err != nil {
				continue
			}
			c.mu.Lock()
			sub := c.subs[msg.reqID]
			c.mu.Unlock()
			if sub != nil {
				sub.deliver(frames)
			}
			continue
		}
		if msg.op == opNotifyFrame {
			u, err := decodeNotifyFrame(msg.payload)
			if err != nil {
				continue
			}
			c.mu.Lock()
			sub := c.subs[msg.reqID]
			c.mu.Unlock()
			if sub != nil {
				sub.deliverFrame(u)
				sub.deliver(u.Frames)
			}
			continue
		}
		c.mu.Lock()
		ch := c.pending[msg.reqID]
		delete(c.pending, msg.reqID)
		c.mu.Unlock()
		if ch != nil {
			ch <- msg // buffered; never blocks
		}
	}
}

// roundTrip sends one request and waits for its response, translating
// opError replies. The wait is bounded by the client's request timeout
// (ClientOptions.RequestTimeout), so a hung server fails the call
// rather than parking it forever.
func (c *Client) roundTrip(op byte, payload []byte) (message, error) {
	ctx := context.Background()
	if c.reqTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.reqTimeout)
		defer cancel()
	}
	msg, err := c.roundTripCtx(ctx, op, payload)
	if err != nil && errors.Is(err, context.DeadlineExceeded) {
		return message{}, fmt.Errorf("remote: no reply within %v: %w", c.reqTimeout, err)
	}
	return msg, err
}

// roundTripCtx is roundTrip under a caller context: a cancellation
// abandons the wait (the server may still process the request, but
// nobody is listening), which is what lets a cancelled pipeline unwind
// a remote stage promptly.
func (c *Client) roundTripCtx(ctx context.Context, op byte, payload []byte) (message, error) {
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return message{}, err
	}
	c.nextID++
	id := c.nextID
	ch := make(chan message, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	err := writeMessage(c.bw, id, op, payload)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return message{}, fmt.Errorf("remote: request write: %w (%w)", err, ErrClientClosed)
	}

	select {
	case msg := <-ch:
		return checkResponse(msg)
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return message{}, ctx.Err()
	case <-c.done:
		// The read loop may have delivered the response just before
		// the connection died; prefer it over the connection error.
		select {
		case msg := <-ch:
			return checkResponse(msg)
		default:
		}
		c.mu.Lock()
		err := c.readErr
		delete(c.pending, id)
		c.mu.Unlock()
		return message{}, err
	}
}

// checkResponse translates opError replies into typed errors: the
// returned chain carries the server's *WireError, so callers can
// classify with errors.As / CodeOf.
func checkResponse(msg message) (message, error) {
	if msg.op == opError {
		return message{}, fmt.Errorf("remote: server error: %w", decodeWireError(msg.payload))
	}
	return msg, nil
}

// Ping runs one explicit heartbeat round trip and returns its RTT —
// the cheapest liveness and latency probe the protocol offers. (The
// background heartbeat loop pings on its own; Ping is for callers that
// want the measurement.)
func (c *Client) Ping() (time.Duration, error) {
	start := time.Now()
	msg, err := c.roundTrip(opPing, nil)
	if err != nil {
		return 0, err
	}
	if msg.op != opPingOK {
		return 0, fmt.Errorf("remote: unexpected ping response %#02x", msg.op)
	}
	return time.Since(start), nil
}

// Stats fetches the server's ServiceStats plus its per-session table
// (queue depth, drop/degrade counters, admission verdicts) — the v5
// measurement surface for load balancing and operations.
func (c *Client) Stats() (StatsReport, error) {
	msg, err := c.roundTrip(opStats, nil)
	if err != nil {
		return StatsReport{}, err
	}
	if msg.op != opStatsOK {
		return StatsReport{}, fmt.Errorf("remote: unexpected stats response %#02x", msg.op)
	}
	return decodeStatsReport(msg.payload)
}

// List returns the server's frame range and liveness.
func (c *Client) List() (ListInfo, error) {
	msg, err := c.roundTrip(opList, nil)
	if err != nil {
		return ListInfo{}, err
	}
	if msg.op != opListOK {
		return ListInfo{}, fmt.Errorf("remote: unexpected list response %#02x", msg.op)
	}
	return decodeListInfo(msg.payload)
}

// NumFrames returns the server's current frame count.
func (c *Client) NumFrames() (int, error) {
	li, err := c.List()
	return li.Frames, err
}

// get runs one Get round trip for frame i's wire encoding.
func (c *Client) get(i int) (message, error) {
	msg, err := c.roundTrip(opGet, encodeIndex(i))
	if err == nil && msg.op != opGetOK {
		err = fmt.Errorf("remote: unexpected get response %#02x", msg.op)
	}
	return msg, err
}

// FetchFrame downloads and decodes frame i, returning the
// representation, the transfer size and the (throttled) elapsed time —
// the "10 seconds for a 100MB time step" measurement of §2.5.
func (c *Client) FetchFrame(i int) (*hybrid.Representation, int64, time.Duration, error) {
	start := time.Now()
	msg, err := c.get(i)
	if err != nil {
		return nil, 0, 0, err
	}
	rep, err := hybrid.DecodeBinary(msg.payload)
	size := int64(len(msg.payload))
	msg.recycle() // DecodeBinary copies; the reply buffer is free again
	if err != nil {
		return nil, 0, 0, err
	}
	return rep, size, time.Since(start), nil
}

// fetchEncoded downloads frame i's raw wire encoding without decoding
// it — the full-frame leg of the delta protocol. It must not recycle
// the reply buffer: the payload becomes the caller's delta base.
func (c *Client) fetchEncoded(i int) ([]byte, error) {
	msg, err := c.get(i)
	return msg.payload, err
}

// FetchFrameDelta downloads frame i as an XOR-residual against frame
// base, whose full wire encoding baseEnc the caller holds from an
// earlier fetch. On a correlated time series the residual compresses
// to a fraction of the full frame. It returns the decoded
// representation, the reconstructed full encoding of frame i (the
// natural baseEnc for the next fetch), the bytes actually
// transferred, and the (throttled) elapsed time. If the server cannot
// serve the delta (base evicted from a live ring) or the
// reconstruction fails against the caller's base, the client falls
// back to a full fetch transparently — the transfer size then
// reflects the full frame.
func (c *Client) FetchFrameDelta(i, base int, baseEnc []byte) (*hybrid.Representation, []byte, int64, time.Duration, error) {
	start := time.Now()
	if base < 0 || len(baseEnc) == 0 {
		// No base held yet — a plain full fetch seeds the chain.
		enc, err := c.fetchEncoded(i)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		rep, err := hybrid.DecodeBinary(enc)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		return rep, enc, int64(len(enc)), time.Since(start), nil
	}
	enc, wire, err := func() ([]byte, int64, error) {
		msg, err := c.roundTrip(opGetDelta, encodeGetDelta(i, base))
		if err != nil {
			return nil, 0, err
		}
		if msg.op != opGetDeltaOK {
			return nil, 0, fmt.Errorf("remote: unexpected get-delta response %#02x", msg.op)
		}
		n := int64(len(msg.payload))
		cur, err := render.DecompressDelta(msg.payload, baseEnc)
		msg.recycle() // DecompressDelta builds a fresh buffer
		return cur, n, err
	}()
	if err != nil {
		c.mu.Lock()
		dead := c.readErr != nil
		c.mu.Unlock()
		if dead {
			return nil, nil, 0, 0, err
		}
		if enc, err = c.fetchEncoded(i); err != nil {
			return nil, nil, 0, 0, err
		}
		wire = int64(len(enc))
	}
	rep, err := hybrid.DecodeBinary(enc)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return rep, enc, wire, time.Since(start), nil
}

// Render asks the server to render frame p.Frame with the given camera
// and transfer-function parameters — the thin-client mode. At the
// default QualityLossless tier the framebuffer is bit-identical to
// rendering the fetched frame locally; QualityPreview trades that for
// a quantized 8-bit encoding several times smaller on the wire. It
// returns the decoded framebuffer, the compressed wire size, and the
// (throttled) elapsed time.
func (c *Client) Render(p RenderParams) (*render.Framebuffer, int64, time.Duration, error) {
	start := time.Now()
	msg, err := c.roundTrip(opRender, encodeRenderParams(p))
	if err != nil {
		return nil, 0, 0, err
	}
	if msg.op != opRenderOK {
		return nil, 0, 0, fmt.Errorf("remote: unexpected render response %#02x", msg.op)
	}
	fb, err := render.DecodeFramebuffer(msg.payload)
	if err != nil {
		return nil, 0, 0, err
	}
	return fb, int64(len(msg.payload)), time.Since(start), nil
}

// Compute runs the named kernel on a Worker with the given request
// blob, returning the reply blob. Requests multiplex like every other
// verb, so concurrent Computes on one connection overlap on the wire
// and on the worker's cores; ctx abandons the wait (first-error
// cancellation in a pipeline stage). Servers without the kernel — or
// without the Compute verb at all — answer with a typed WireError
// (ErrCodeUnknownKernel / ErrCodeUnknownVerb).
func (c *Client) Compute(ctx context.Context, kernel string, req []byte) ([]byte, error) {
	buf, err := appendComputeHeader(getBytes(0), kernel)
	if err != nil {
		return nil, err
	}
	buf = append(buf, req...)
	msg, err := c.roundTripCtx(ctx, opCompute, buf)
	putBytes(buf)
	if err != nil {
		return nil, err
	}
	if msg.op != opComputeOK {
		return nil, fmt.Errorf("remote: unexpected compute response %#02x", msg.op)
	}
	return msg.payload, nil
}

// Kernels asks a worker which stage kernels it hosts — the v4
// provisioning check a fleet runs before admitting a member. A store
// service answers with ErrCodeUnknownVerb, which is itself the
// answer: this endpoint hosts no kernels at all.
func (c *Client) Kernels(ctx context.Context) ([]string, error) {
	msg, err := c.roundTripCtx(ctx, opKernels, nil)
	if err != nil {
		return nil, err
	}
	if msg.op != opKernelsOK {
		return nil, fmt.Errorf("remote: unexpected kernels response %#02x", msg.op)
	}
	names, err := decodeKernelList(msg.payload)
	msg.recycle() // decodeKernelList copies the names out
	return names, err
}

// Subscription is a live feed of the server's frame count. Updates is
// latest-wins: a slow consumer sees the most recent count, not a
// backlog, mirroring the server's no-backpressure contract.
type Subscription struct {
	// Updates carries the server's frame count: first the count at
	// subscribe time, then a value per publish (collapsed under load).
	// It closes when the subscription or connection ends.
	Updates <-chan int

	// Frames carries inline frame pushes when the subscription was
	// opened with SubscribeOptions.InlineFrames; nil otherwise. Like
	// Updates it is latest-wins, and the first frame arrives only on
	// the first publish after subscribing (the backlog comes via
	// FetchFrame). A push the server had to degrade to a count-only
	// notify (frame already evicted) appears on Updates alone.
	Frames <-chan FrameUpdate

	ch        chan int
	fch       chan FrameUpdate
	done      chan struct{} // closed by Close; ends the connection watchdog
	cancel    func()
	mu        sync.Mutex
	last      int // highest count delivered; duplicates and regressions drop
	lastFrame int // highest count delivered on Frames
	closed    bool
}

// SubscribeOptions selects protocol v3 subscription extensions.
type SubscribeOptions struct {
	// InlineFrames asks the server to ship each new frame's wire
	// encoding inside the notify itself — the encode-once broadcast
	// path: the server encodes the frame once and writes that same
	// buffer to every inline subscriber, so the client skips the
	// notify→FetchFrame round trip.
	InlineFrames bool
}

// FrameUpdate is one inline-subscription push: the server's frame
// count, the index of the newest frame, and that frame's full wire
// encoding (a valid FetchFrameDelta base for later fetches).
type FrameUpdate struct {
	Frames  int
	Index   int
	Payload []byte
}

// Decode unpacks the pushed frame.
func (u FrameUpdate) Decode() (*hybrid.Representation, error) {
	return hybrid.DecodeBinary(u.Payload)
}

// Subscribe registers for live-frame notifications. On a static store
// the channel sees one update (the current count) and nothing more.
func (c *Client) Subscribe() (*Subscription, error) {
	return c.SubscribeWith(SubscribeOptions{})
}

// SubscribeWith is Subscribe with protocol v3 options.
func (c *Client) SubscribeWith(opts SubscribeOptions) (*Subscription, error) {
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	ch := make(chan message, 1)
	c.pending[id] = ch
	sub := &Subscription{ch: make(chan int, 1), done: make(chan struct{}), last: -1}
	sub.Updates = sub.ch
	if opts.InlineFrames {
		sub.fch = make(chan FrameUpdate, 1)
		sub.Frames = sub.fch
	}
	sub.cancel = func() {
		c.mu.Lock()
		if c.subs[id] == sub {
			delete(c.subs, id)
		}
		c.mu.Unlock()
	}
	c.subs[id] = sub
	c.mu.Unlock()

	// Close the feed when the connection dies; the watchdog itself
	// ends when the subscription closes first.
	go func() {
		select {
		case <-c.done:
			sub.Close()
		case <-sub.done:
		}
	}()

	var payload []byte // empty = count-only subscribe
	if opts.InlineFrames {
		payload = []byte{subFlagInline}
	}
	c.wmu.Lock()
	err := writeMessage(c.bw, id, opSubscribe, payload)
	c.wmu.Unlock()
	if err != nil {
		sub.Close()
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, fmt.Errorf("remote: subscribe write: %w (%w)", err, ErrClientClosed)
	}
	accept := func(msg message) (*Subscription, error) {
		if msg.op == opError {
			sub.Close()
			return nil, fmt.Errorf("remote: server error: %s", msg.payload)
		}
		frames, err := decodeCount(msg.payload)
		if msg.op != opSubscribeOK || err != nil {
			sub.Close()
			return nil, fmt.Errorf("remote: unexpected subscribe response %#02x", msg.op)
		}
		sub.deliver(frames)
		return sub, nil
	}
	select {
	case msg := <-ch:
		return accept(msg)
	case <-c.done:
		// Prefer a response that arrived before the connection died.
		select {
		case msg := <-ch:
			return accept(msg)
		default:
		}
		sub.Close()
		c.mu.Lock()
		err := c.readErr
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, err
	}
}

// deliver pushes a count latest-wins: if the consumer hasn't drained
// the previous value, it is replaced. Counts are monotonic — a stale
// value (e.g. the Subscribe response racing a newer pushed notify onto
// the wire) never overwrites a higher one.
func (s *Subscription) deliver(frames int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || frames <= s.last {
		return
	}
	s.last = frames
	for {
		select {
		case s.ch <- frames:
			return
		default:
			select {
			case <-s.ch:
			default:
			}
		}
	}
}

// deliverFrame pushes an inline frame latest-wins onto Frames, with
// the same monotonic guard as deliver.
func (s *Subscription) deliverFrame(u FrameUpdate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.fch == nil || u.Frames <= s.lastFrame {
		return
	}
	s.lastFrame = u.Frames
	for {
		select {
		case s.fch <- u:
			return
		default:
			select {
			case <-s.fch:
			default:
			}
		}
	}
}

// Close unregisters the subscription and closes Updates (and Frames).
func (s *Subscription) Close() {
	s.cancel()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.ch)
		if s.fch != nil {
			close(s.fch)
		}
		close(s.done)
	}
}
