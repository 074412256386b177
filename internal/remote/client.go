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
	"repro/internal/pipeline"
	"repro/internal/render"
)

// Client is one session against a Service. A single TCP connection
// carries any number of concurrent requests — each tagged with a
// request ID and matched to its response by a background read loop —
// so a viewer that fetches ahead overlaps WAN fetches instead of
// serializing them. Methods are safe for concurrent use.
//
// Whether a client redials follows from how it was made. A client from
// Dial or DialWith knows its address: a call that fails transiently —
// connection lost, heartbeat timeout, no reply in time, a retryable
// ErrCodeUnavailable refusal — is retried under ClientOptions.Retry over
// a fresh connection, dialed and handshaken between attempts, and a
// redial by one call is at once the connection of every other. A client
// from NewClientConn was handed a transport its owner controls (a fleet
// member, a benchmark viewer, a fault-injection test) and never redials:
// its calls go to that one connection and fail with it. Close is final
// for both.
type Client struct {
	link atomic.Pointer[link] // the current connection; a redial replaces it
	addr string               // where to redial; "" for a NewClientConn client
	opts ClientOptions

	bandwidthBps atomic.Int64 // read by every link, so SetBandwidth survives redials
	closed       atomic.Bool
	redials      atomic.Uint64

	dialMu sync.Mutex // serializes redials: concurrent callers wait for one dial
}

// link is one connection of a Client: the handshaken transport, the
// requests in flight on it, its subscriptions, and the read and
// heartbeat loops that serve them until the connection dies.
type link struct {
	conn       net.Conn
	bps        *atomic.Int64 // the client's bandwidth throttle
	hbInterval time.Duration
	hbIdle     time.Duration
	wmu        sync.Mutex
	bw         *bufio.Writer

	lastInbound atomic.Int64 // unix nanos of the last inbound message

	mu      sync.Mutex
	pending map[uint64]chan message
	subs    map[uint64]*Subscription
	nextID  uint64
	readErr error
	done    chan struct{}
}

// ErrClientClosed marks a connection that is gone — closed by the
// caller, lost to the transport, or declared dead by the heartbeat
// watchdog — and a Client the caller has Closed. Every call on a dead
// connection fails fast with an error wrapping it, so callers classify
// retryable-by-redial transport loss with errors.Is instead of
// pattern-matching write errors. IsTransient reports true for it: the
// connection is dead, but a fresh dial may well succeed — unless the
// Client itself was closed, which no retry undoes.
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
	// RequestTimeout bounds each round trip of every verb (each attempt,
	// for a dialed client that retries): if no reply arrives within it,
	// the call fails with a timeout error instead of blocking forever on
	// a hung server. 0 means DefaultRequestTimeout; negative disables the
	// bound (raise or disable it when SetBandwidth models links slower
	// than a frame per timeout). Context-taking calls (Compute, Kernels)
	// end at whichever comes first, their context or this bound — so a
	// Fleet member's Compute is bounded by FleetOptions.RequestTimeout.
	RequestTimeout time.Duration

	// HeartbeatInterval is the cadence of the background Ping loop
	// (protocol v5). Pings are sent unconditionally — not only when
	// idle — so the server's read deadline keeps refreshing even for a
	// subscriber that never issues requests. 0 means
	// DefaultHeartbeatInterval; negative disables the loop (and with
	// it IdleTimeout dead-peer detection). The heartbeat is what turns
	// a silently dead link into a prompt ErrClientClosed, and with it a
	// redial: leave it on unless a test says otherwise.
	HeartbeatInterval time.Duration

	// IdleTimeout is how long the heartbeat watchdog tolerates total
	// inbound silence (no responses, no notifies, no pongs) before
	// declaring the peer dead and severing the connection with an
	// error wrapping ErrClientClosed. 0 means 3× the heartbeat
	// interval; negative disables the check while keeping pings
	// flowing.
	IdleTimeout time.Duration

	// Retry governs a dialed client's redial/backoff schedule; the zero
	// value is the pipeline default (3 attempts, 50ms base doubling to
	// 2s, ±50% jitter). Each call, the first dial included, gets at
	// most MaxAttempts tries across redials before its error surfaces.
	// A NewClientConn client never retries.
	Retry pipeline.RetryPolicy

	// Dial overrides a dialed client's transport dial — the seam for
	// tests that wrap connections in fault injectors, and for callers
	// with custom transports. nil means TCP with a 5s timeout.
	Dial func(addr string) (net.Conn, error)
}

// orDefault reads a duration option: 0 means def, negative means off
// (0). The duration options of ClientOptions, ServiceOptions and
// FleetOptions all follow this one rule.
func orDefault(d, def time.Duration) time.Duration {
	switch {
	case d > 0:
		return d
	case d < 0:
		return 0
	}
	return def
}

func (o ClientOptions) dial(addr string) (net.Conn, error) {
	if o.Dial != nil {
		return o.Dial(addr)
	}
	return net.DialTimeout("tcp", addr, 5*time.Second)
}

// Dial connects and runs the version handshake with default options.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, ClientOptions{})
}

// DialWith is Dial with explicit options. The first dial is retried
// under opts.Retry like every later redial.
func DialWith(addr string, opts ClientOptions) (*Client, error) {
	c := &Client{addr: addr, opts: opts}
	if err := c.retry(context.Background(), func(*link) error { return nil }); err != nil {
		return nil, err
	}
	return c, nil
}

// NewClientConn runs the version handshake over an established
// connection and returns the client session for it. It is the seam
// for callers that own the transport — a fleet's custom dialer, or a
// test wrapping the connection in a fault injector — and the client it
// returns never redials. On error the connection is closed.
func NewClientConn(conn net.Conn, opts ClientOptions) (*Client, error) {
	c := &Client{opts: opts}
	l, err := c.newLink(conn)
	if err != nil {
		return nil, err
	}
	c.link.Store(l)
	return c, nil
}

// newLink runs the version handshake over conn and starts the
// connection's read and heartbeat loops. On error conn is closed.
func (c *Client) newLink(conn net.Conn) (*link, error) {
	if err := clientHello(conn); err != nil {
		conn.Close()
		return nil, err
	}
	hb := orDefault(c.opts.HeartbeatInterval, DefaultHeartbeatInterval)
	l := &link{
		conn:       conn,
		bps:        &c.bandwidthBps,
		hbInterval: hb,
		hbIdle:     orDefault(c.opts.IdleTimeout, 3*hb),
		bw:         bufio.NewWriterSize(conn, 1<<16),
		pending:    make(map[uint64]chan message),
		subs:       make(map[uint64]*Subscription),
		done:       make(chan struct{}),
	}
	l.lastInbound.Store(time.Now().UnixNano())
	go l.readLoop()
	if l.hbInterval > 0 {
		go l.heartbeatLoop()
	}
	return l, nil
}

// SetBandwidth throttles response reads to bps bytes per second,
// modeling the wide-area link (<= 0 disables). It holds across redials.
func (c *Client) SetBandwidth(bps int64) { c.bandwidthBps.Store(bps) }

// Redials reports how many times a dialed client has re-established
// its connection — 0 after an uninterrupted session.
func (c *Client) Redials() uint64 { return c.redials.Load() }

// Close severs the connection for good: in-flight and later requests
// fail promptly with an error wrapping ErrClientClosed, and nothing
// redials.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.dialMu.Lock() // a redial in progress lands first, and is closed below
	l := c.link.Load()
	c.dialMu.Unlock()
	return l.close()
}

// current returns the live connection, dialing a fresh one if the last
// one died. Dials are serialized: concurrent callers wait for one
// rather than racing their own.
func (c *Client) current() (*link, error) {
	c.dialMu.Lock()
	defer c.dialMu.Unlock()
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	old := c.link.Load()
	if old != nil {
		if !old.dead() {
			return old, nil
		}
		old.close() // one that died reading may still hold its socket
	}
	conn, err := c.opts.dial(c.addr)
	if err != nil {
		return nil, fmt.Errorf("remote: dial %s: %w", c.addr, err)
	}
	l, err := c.newLink(conn)
	if err != nil {
		return nil, err
	}
	if old != nil {
		c.redials.Add(1)
	}
	c.link.Store(l)
	return l, nil
}

// retry runs f on the live connection under the retry policy. A
// transient failure severs that connection, so the next attempt
// redials — if the server refused admission, only a fresh connection
// gets a fresh verdict. A newer connection is never touched: another
// call already redialed, and it is not guilty of this call's error.
// Neither is one the caller's own context gave up on. A NewClientConn
// client runs f once, on its one connection.
func (c *Client) retry(ctx context.Context, f func(*link) error) error {
	if c.addr == "" {
		return f(c.link.Load())
	}
	return pipeline.Retry(ctx, c.opts.Retry, c.retryable, func(ctx context.Context) error {
		l, err := c.current()
		if err != nil {
			return err
		}
		if err = f(l); IsTransient(err) && ctx.Err() == nil {
			l.close()
		}
		return err
	})
}

// retryable classifies errors for the redial loop: a closed client is
// final; everything else defers to IsTransient.
func (c *Client) retryable(err error) bool {
	return !c.closed.Load() && IsTransient(err)
}

// roundTrip sends one request without a caller context; see call.
func (c *Client) roundTrip(op byte, payload []byte) (message, error) {
	return c.call(context.Background(), op, payload)
}

// call sends one request and waits for its reply, each attempt bounded
// by the client's request timeout (ClientOptions.RequestTimeout), so a
// hung server fails the call rather than parking it forever. A
// NewClientConn client asks its connection once; a dialed one retries
// transient failures over redials.
func (c *Client) call(ctx context.Context, op byte, payload []byte) (message, error) {
	var msg message
	err := c.retry(ctx, func(l *link) (err error) {
		msg, err = l.roundTrip(ctx, c.requestTimeout(), op, payload, nil)
		return err
	})
	return msg, err
}

func (c *Client) requestTimeout() time.Duration {
	return orDefault(c.opts.RequestTimeout, DefaultRequestTimeout)
}

// close severs the connection; in-flight and later requests on it fail
// promptly with an error wrapping ErrClientClosed.
func (l *link) close() error {
	l.fail(ErrClientClosed)
	return l.conn.Close()
}

// fail records the connection's terminal error; only the first one
// sticks, so a caller-initiated close isn't relabelled as the transport
// error it provokes.
func (l *link) fail(err error) {
	l.mu.Lock()
	if l.readErr == nil {
		l.readErr = err
	}
	l.mu.Unlock()
}

// dead reports whether the connection has failed.
func (l *link) dead() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.readErr != nil
}

// heartbeatLoop is the protocol-v5 liveness probe: a Ping every
// interval (unconditionally — the pings are what keep the server's
// idle deadline at bay for a subscriber that never writes), and a
// watchdog that declares the peer dead after hbIdle of total inbound
// silence. The pong — like every inbound message — refreshes
// lastInbound in readLoop; heartbeat pings ride request ID 0, which
// roundTrip never allocates, so the replies need no pending entry.
func (l *link) heartbeatLoop() {
	t := time.NewTicker(l.hbInterval)
	defer t.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-t.C:
		}
		if l.hbIdle > 0 {
			idle := time.Since(time.Unix(0, l.lastInbound.Load()))
			if idle > l.hbIdle {
				l.fail(fmt.Errorf("remote: peer silent for %v (heartbeat timeout): %w", idle.Round(time.Millisecond), ErrClientClosed))
				l.conn.Close()
				return
			}
		}
		l.wmu.Lock()
		err := writeMessage(l.bw, 0, opPing, nil)
		l.wmu.Unlock()
		if err != nil {
			l.fail(fmt.Errorf("remote: heartbeat write: %w (%w)", err, ErrClientClosed))
			l.conn.Close()
			return
		}
	}
}

// readLoop routes every inbound message to its requester (or
// subscription) until the connection dies.
func (l *link) readLoop() {
	br := bufio.NewReaderSize(l.conn, 1<<16)
	for {
		// Wait for the next message before reading the throttle: a
		// SetBandwidth made before a request then governs its reply,
		// even though this loop was already parked when it ran.
		_, err := br.Peek(1)
		var msg message
		if err == nil {
			msg, err = readMessage(br, l.bps.Load())
		}
		if err != nil {
			l.fail(fmt.Errorf("remote: connection lost: %w (%w)", err, ErrClientClosed))
			close(l.done)
			return
		}
		l.lastInbound.Store(time.Now().UnixNano())
		l.mu.Lock()
		if msg.op == opNotify || msg.op == opNotifyFrame {
			sub := l.subs[msg.reqID]
			l.mu.Unlock()
			if sub != nil {
				sub.push(msg)
			}
			continue
		}
		ch := l.pending[msg.reqID]
		delete(l.pending, msg.reqID)
		l.mu.Unlock()
		if ch != nil {
			ch <- msg // buffered; never blocks
		}
	}
}

// roundTrip sends one request and waits for its reply, bounded by
// timeout when it is > 0, and admits only the reply checkResponse
// accepts for op. onSend, when non-nil, runs with the request ID under
// the link lock before the request is written: subscribe registers its
// feed there, so no push on that ID arrives unrouted. A cancellation of
// ctx abandons the wait (the server may still process the request, but
// nobody is listening), which is what lets a cancelled pipeline unwind
// a remote stage promptly.
func (l *link) roundTrip(ctx context.Context, timeout time.Duration, op byte, payload []byte, onSend func(id uint64)) (message, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	l.mu.Lock()
	if l.readErr != nil {
		err := l.readErr
		l.mu.Unlock()
		return message{}, err
	}
	l.nextID++
	id := l.nextID
	ch := make(chan message, 1)
	l.pending[id] = ch
	if onSend != nil {
		onSend(id)
	}
	l.mu.Unlock()

	l.wmu.Lock()
	err := writeMessage(l.bw, id, op, payload)
	l.wmu.Unlock()
	if err != nil {
		l.forget(id)
		return message{}, fmt.Errorf("remote: request write: %w (%w)", err, ErrClientClosed)
	}

	select {
	case msg := <-ch:
		return checkResponse(op, msg)
	case <-ctx.Done():
		l.forget(id)
		err := ctx.Err()
		if timeout > 0 && errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("remote: no reply within %v: %w", timeout, err)
		}
		return message{}, err
	case <-l.done:
		// The read loop may have delivered the response just before
		// the connection died; prefer it over the connection error.
		select {
		case msg := <-ch:
			return checkResponse(op, msg)
		default:
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		delete(l.pending, id)
		return message{}, l.readErr
	}
}

// forget drops a request nobody waits for any more.
func (l *link) forget(id uint64) {
	l.mu.Lock()
	delete(l.pending, id)
	l.mu.Unlock()
}

// Ping runs one explicit heartbeat round trip and returns its RTT —
// the cheapest liveness and latency probe the protocol offers. (The
// background heartbeat loop pings on its own; Ping is for callers that
// want the measurement.)
func (c *Client) Ping() (time.Duration, error) {
	start := time.Now()
	if _, err := c.roundTrip(opPing, nil); err != nil {
		return 0, err
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
	return decodeStatsReport(msg.payload)
}

// List returns the server's frame range and liveness.
func (c *Client) List() (ListInfo, error) {
	msg, err := c.roundTrip(opList, nil)
	if err != nil {
		return ListInfo{}, err
	}
	return decodeListInfo(msg.payload)
}

// NumFrames returns the server's current frame count.
func (c *Client) NumFrames() (int, error) {
	li, err := c.List()
	return li.Frames, err
}

// FetchFrame downloads and decodes frame i, returning the
// representation, the transfer size and the (throttled) elapsed time —
// the "10 seconds for a 100MB time step" measurement of §2.5.
func (c *Client) FetchFrame(i int) (*hybrid.Representation, int64, time.Duration, error) {
	start := time.Now()
	msg, err := c.roundTrip(opGet, encodeIndex(i))
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
	msg, err := c.roundTrip(opGet, encodeIndex(i))
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
// reflects the full frame. A transient failure of the round trip
// itself is returned instead: a full fetch would cross the same link.
// So is a reply with the wrong opcode, which only a peer outside the
// protocol sends.
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
	msg, err := c.roundTrip(opGetDelta, encodeGetDelta(i, base))
	if IsTransient(err) {
		return nil, nil, 0, 0, err
	}
	var enc []byte
	wire := int64(len(msg.payload))
	if err == nil {
		enc, err = render.DecompressDelta(msg.payload, baseEnc)
		msg.recycle() // DecompressDelta builds a fresh buffer
	}
	if err != nil {
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
// (throttled) elapsed time. A dialed client rides out a server whose
// render gate is momentarily full (ErrCodeUnavailable) at the cost of a
// backoff and a fresh connection, not the frame.
func (c *Client) Render(p RenderParams) (*render.Framebuffer, int64, time.Duration, error) {
	start := time.Now()
	msg, err := c.roundTrip(opRender, encodeRenderParams(p))
	if err != nil {
		return nil, 0, 0, err
	}
	fb, err := render.DecodeFramebuffer(msg.payload)
	size := int64(len(msg.payload))
	msg.recycle() // both decoders copy; the reply buffer is free again
	if err != nil {
		return nil, 0, 0, err
	}
	return fb, size, time.Since(start), nil
}

// Compute runs the named kernel on a Worker with the given request
// blob, returning the reply blob. Requests multiplex like every other
// verb, so concurrent Computes on one connection overlap on the wire
// and on the worker's cores; ctx abandons the wait (first-error
// cancellation in a pipeline stage), and ClientOptions.RequestTimeout
// bounds it like every verb. Servers without the kernel — or without
// the Compute verb at all — answer with a typed WireError
// (ErrCodeUnknownKernel / ErrCodeUnknownVerb).
func (c *Client) Compute(ctx context.Context, kernel string, req []byte) ([]byte, error) {
	buf, err := appendComputeHeader(getBytes(0), kernel)
	if err != nil {
		return nil, err
	}
	buf = append(buf, req...)
	msg, err := c.call(ctx, opCompute, buf)
	putBytes(buf)
	return msg.payload, err
}

// Kernels asks a worker which stage kernels it hosts — the v4
// provisioning check a fleet runs before admitting a member. A store
// service answers with ErrCodeUnknownVerb, which is itself the
// answer: this endpoint hosts no kernels at all.
func (c *Client) Kernels(ctx context.Context) ([]string, error) {
	msg, err := c.call(ctx, opKernels, nil)
	if err != nil {
		return nil, err
	}
	names, err := decodeKernelList(msg.payload)
	msg.recycle() // decodeKernelList copies the names out
	return names, err
}

// Subscription is a live feed of the server's frame count. Updates is
// latest-wins: a slow consumer sees the most recent count, not a
// backlog, mirroring the server's no-backpressure contract. It lives
// on the connection it was opened on and ends with it; SubscribeResume
// is the feed that outlives a connection.
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
	var sub *Subscription
	err := c.retry(context.Background(), func(l *link) (err error) {
		sub, err = l.subscribe(c.requestTimeout(), opts)
		return err
	})
	return sub, err
}

// subscribe opens a subscription on this connection. The feed is
// registered under the request ID before the request goes out, so a
// push racing the reply onto the wire is not lost; the watchdog that
// ends the feed with the connection starts once the reply is in.
func (l *link) subscribe(timeout time.Duration, opts SubscribeOptions) (*Subscription, error) {
	sub := &Subscription{ch: make(chan int, 1), done: make(chan struct{}), last: -1}
	sub.Updates = sub.ch
	var payload []byte // empty = count-only subscribe
	if opts.InlineFrames {
		sub.fch = make(chan FrameUpdate, 1)
		sub.Frames = sub.fch
		payload = []byte{subFlagInline}
	}
	var id uint64 // guarded by l.mu, like l.subs
	sub.cancel = func() {
		l.mu.Lock()
		if l.subs[id] == sub {
			delete(l.subs, id)
		}
		l.mu.Unlock()
	}
	msg, err := l.roundTrip(context.Background(), timeout, opSubscribe, payload, func(reqID uint64) {
		id = reqID
		l.subs[id] = sub
	})
	var frames int
	if err == nil {
		frames, err = decodeCount(msg.payload)
	}
	if err != nil {
		sub.Close()
		return nil, err
	}
	sub.deliver(frames)
	// Close the feed when the connection dies; the watchdog itself
	// ends when the subscription closes first.
	go func() {
		select {
		case <-l.done:
			sub.Close()
		case <-sub.done:
		}
	}()
	return sub, nil
}

// push routes one server push on this subscription's request ID: a
// count (opNotify), or an inline frame and its count (opNotifyFrame).
// A push that does not decode is dropped.
func (s *Subscription) push(msg message) {
	if msg.op == opNotify {
		if frames, err := decodeCount(msg.payload); err == nil {
			s.deliver(frames)
		}
		return
	}
	u, err := decodeNotifyFrame(msg.payload)
	if err != nil {
		return
	}
	s.mu.Lock()
	if !s.closed && s.fch != nil && u.Frames > s.lastFrame {
		s.lastFrame = u.Frames
		offer(s.fch, u)
	}
	s.mu.Unlock()
	s.deliver(u.Frames)
}

// deliver pushes a count latest-wins onto Updates. Counts are
// monotonic — a stale value (e.g. the Subscribe response racing a newer
// pushed notify onto the wire) never overwrites a higher one; Frames
// has the same guard in push.
func (s *Subscription) deliver(frames int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed && frames > s.last {
		s.last = frames
		offer(s.ch, frames)
	}
}

// offer sends v latest-wins: if the consumer hasn't drained the
// previous value, it is replaced.
func offer[T any](ch chan T, v T) {
	for {
		select {
		case ch <- v:
			return
		default:
			select {
			case <-ch:
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
