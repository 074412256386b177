package remote

import (
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

// errReconnectClosed marks a ReconnectClient the caller has Closed.
// Unlike ErrClientClosed — which means "this connection died, a redial
// fixes it" — this one is final: no verb and no amount of retrying is
// allowed to resurrect a closed reconnect client.
var errReconnectClosed = errors.New("remote: reconnect client closed")

// ReconnectOptions tune a ReconnectClient.
type ReconnectOptions struct {
	// Client configures each underlying connection (request timeout,
	// heartbeat cadence). The v5 heartbeat is what converts a silently
	// dead link into a prompt ErrClientClosed, which is what triggers
	// the redial — leave it enabled unless a test says otherwise.
	Client ClientOptions
	// Retry governs the redial/backoff schedule; the zero value is the
	// pipeline default (3 attempts, 50ms base doubling to 2s, ±50%
	// jitter). Each verb call gets at most MaxAttempts tries across
	// redials before its error surfaces; a subscription that exhausts
	// the policy while resubscribing ends with that error.
	Retry pipeline.RetryPolicy
	// Bandwidth, if > 0, applies SetBandwidth to every new connection
	// (the throttle would otherwise be lost on redial).
	Bandwidth int64
	// Dial overrides the transport dial — the seam for tests that wrap
	// connections in fault injectors, and for callers with custom
	// transports. nil means TCP with a 5s timeout.
	Dial func(addr string) (net.Conn, error)
}

// ReconnectClient is the resilient form of Client: a wrapper holding
// one live connection at a time that transparently redials (with
// pipeline.Retry backoff), re-runs the protocol handshake, and retries
// the interrupted call whenever the connection dies or the server
// refuses retryably (ErrCodeUnavailable — admission or render
// capacity). Subscriptions opened through SubscribeResume survive
// reconnects too: each tracks the last frame it delivered and catches
// up over GetDelta, so a viewer that loses its link resumes the stream
// bit-identical with no duplicated or skipped frames.
//
// Methods are safe for concurrent use; all calls on one ReconnectClient
// share the underlying connection, and a redial by one call is
// immediately visible to the others.
type ReconnectClient struct {
	addr string
	opts ReconnectOptions

	mu     sync.Mutex
	cli    *Client
	gen    uint64 // bumps on every successful dial
	closed bool

	redials atomic.Uint64
}

// DialReconnect connects to addr, retrying the initial dial under the
// same policy as every later redial.
func DialReconnect(addr string, opts ReconnectOptions) (*ReconnectClient, error) {
	rc := &ReconnectClient{addr: addr, opts: opts}
	if err := rc.do(func(c *Client) error { return nil }); err != nil {
		return nil, err
	}
	return rc, nil
}

// Close severs the current connection and makes every later call fail
// fast and non-retryably.
func (rc *ReconnectClient) Close() error {
	rc.mu.Lock()
	rc.closed = true
	cli := rc.cli
	rc.cli = nil
	rc.mu.Unlock()
	if cli != nil {
		return cli.Close()
	}
	return nil
}

// Redials reports how many times the client has re-established its
// connection — 0 after an uninterrupted session.
func (rc *ReconnectClient) Redials() uint64 { return rc.redials.Load() }

// client returns the live connection, dialing a fresh one if none is
// up. Dial attempts are serialized under mu; concurrent callers wait
// for one dial rather than racing their own. The returned generation
// identifies this connection for invalidate.
func (rc *ReconnectClient) client() (*Client, uint64, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		return nil, 0, errReconnectClosed
	}
	if rc.cli != nil {
		return rc.cli, rc.gen, nil
	}
	conn, err := rc.dial()
	if err != nil {
		return nil, 0, fmt.Errorf("remote: redial %s: %w", rc.addr, err)
	}
	cli, err := NewClientConn(conn, rc.opts.Client)
	if err != nil {
		return nil, 0, err
	}
	if rc.opts.Bandwidth > 0 {
		cli.SetBandwidth(rc.opts.Bandwidth)
	}
	if rc.gen > 0 {
		rc.redials.Add(1)
	}
	rc.gen++
	rc.cli = cli
	return cli, rc.gen, nil
}

func (rc *ReconnectClient) dial() (net.Conn, error) {
	if rc.opts.Dial != nil {
		return rc.opts.Dial(rc.addr)
	}
	return net.DialTimeout("tcp", rc.addr, 5*time.Second)
}

// invalidate drops the connection behind gen so the next call redials.
// A newer generation is left alone: another caller already redialed,
// and their connection is not guilty of this caller's error.
func (rc *ReconnectClient) invalidate(gen uint64) {
	rc.mu.Lock()
	if rc.gen == gen && rc.cli != nil {
		rc.cli.Close()
		rc.cli = nil
	}
	rc.mu.Unlock()
}

// reconnectRetryable classifies errors for the redial loop: a closed
// reconnect client is final; everything else defers to IsTransient
// (connection loss, timeouts, and retryable ErrCodeUnavailable servers
// retry; typed protocol errors like unknown-verb or bad-request
// surface immediately).
func reconnectRetryable(err error) bool {
	return !errors.Is(err, errReconnectClosed) && IsTransient(err)
}

// do runs f against the live connection under the retry policy,
// redialing between attempts when the failure implicates the
// connection (any transient error — if the server refused admission,
// only a fresh connection gets a fresh verdict).
func (rc *ReconnectClient) do(f func(c *Client) error) error {
	return pipeline.Retry(context.Background(), rc.opts.Retry, reconnectRetryable,
		func(ctx context.Context) error {
			cli, gen, err := rc.client()
			if err != nil {
				return err
			}
			if err := f(cli); err != nil {
				if IsTransient(err) {
					rc.invalidate(gen)
				}
				return err
			}
			return nil
		})
}

// List is Client.List with transparent redial.
func (rc *ReconnectClient) List() (ListInfo, error) {
	var li ListInfo
	err := rc.do(func(c *Client) error {
		var e error
		li, e = c.List()
		return e
	})
	return li, err
}

// NumFrames is Client.NumFrames with transparent redial.
func (rc *ReconnectClient) NumFrames() (int, error) {
	li, err := rc.List()
	return li.Frames, err
}

// FetchFrame is Client.FetchFrame with transparent redial.
func (rc *ReconnectClient) FetchFrame(i int) (*hybrid.Representation, int64, time.Duration, error) {
	var (
		rep  *hybrid.Representation
		n    int64
		took time.Duration
	)
	err := rc.do(func(c *Client) error {
		var e error
		rep, n, took, e = c.FetchFrame(i)
		return e
	})
	return rep, n, took, err
}

// Render is Client.Render with transparent redial — including past a
// server whose render gate is momentarily full (ErrCodeUnavailable),
// which costs a backoff and a fresh connection, not the frame.
func (rc *ReconnectClient) Render(p RenderParams) (*render.Framebuffer, int64, time.Duration, error) {
	var (
		fb   *render.Framebuffer
		n    int64
		took time.Duration
	)
	err := rc.do(func(c *Client) error {
		var e error
		fb, n, took, e = c.Render(p)
		return e
	})
	return fb, n, took, err
}

// Stats is Client.Stats with transparent redial.
func (rc *ReconnectClient) Stats() (StatsReport, error) {
	var r StatsReport
	err := rc.do(func(c *Client) error {
		var e error
		r, e = c.Stats()
		return e
	})
	return r, err
}

// ResumedFrame is one frame delivered by a resilient subscription: the
// frame's index and its full wire encoding, exactly the bytes the
// server's store holds (deltas are reconstructed before delivery, so
// the payload chains as the next GetDelta base — and a resumed stream
// is bit-identical to an uninterrupted one).
type ResumedFrame struct {
	Index   int
	Payload []byte
}

// Decode unpacks the frame.
func (f ResumedFrame) Decode() (*hybrid.Representation, error) {
	return hybrid.DecodeBinary(f.Payload)
}

// ReconnectSub is a subscription that survives reconnects. Unlike
// Client.Subscribe's latest-wins channels, Frames is ordered, gapless
// and consumer-paced: every frame index after the resume point appears
// exactly once, in order — the pump fetches whatever span a notify (or
// an outage) skipped via GetDelta before moving on. The trade is that
// a consumer slower than the server's live ring can lose frames to
// eviction; those are counted in Skipped, never silently dropped.
type ReconnectSub struct {
	// Frames delivers the stream. It closes when Close is called or
	// the subscription fails permanently (retry policy exhausted);
	// Err distinguishes.
	Frames <-chan ResumedFrame

	rc      *ReconnectClient
	ch      chan ResumedFrame
	done    chan struct{}
	once    sync.Once
	skipped atomic.Uint64

	mu  sync.Mutex
	err error
}

// SubscribeResume opens a resilient live subscription delivering every
// frame after index `after` (pass -1 to stream from the first frame
// the server still holds, or the last index already on hand to resume
// a previous session). The subscription redials, re-subscribes and
// catches up via GetDelta on every connection loss; the consumer just
// reads Frames.
func (rc *ReconnectClient) SubscribeResume(after int) (*ReconnectSub, error) {
	rc.mu.Lock()
	closed := rc.closed
	rc.mu.Unlock()
	if closed {
		return nil, errReconnectClosed
	}
	s := &ReconnectSub{
		rc:   rc,
		ch:   make(chan ResumedFrame),
		done: make(chan struct{}),
	}
	s.Frames = s.ch
	go s.run(after)
	return s, nil
}

// Close stops the subscription and closes Frames.
func (s *ReconnectSub) Close() {
	s.once.Do(func() { close(s.done) })
}

// Err reports why Frames closed: nil after Close, the terminal error
// after a permanent failure.
func (s *ReconnectSub) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Skipped counts frames lost to server-side eviction — a consumer
// pacing slower than the live ring's capacity. 0 means the gapless
// guarantee held end to end.
func (s *ReconnectSub) Skipped() uint64 { return s.skipped.Load() }

func (s *ReconnectSub) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// run is the pump: subscribe (redialing under the retry policy),
// consume count notifies, and close every gap — whether from notify
// collapsing under load or from an outage between subscriptions — with
// GetDelta catch-up against the last delivered frame. lastIdx/lastEnc
// persist across reconnects; that is the whole resume mechanism.
func (s *ReconnectSub) run(after int) {
	defer close(s.ch)
	lastIdx := after
	var lastEnc []byte
	for {
		select {
		case <-s.done:
			return
		default:
		}
		var (
			cli *Client
			gen uint64
			sub *Subscription
		)
		err := pipeline.Retry(context.Background(), s.rc.opts.Retry, reconnectRetryable,
			func(ctx context.Context) error {
				c, g, err := s.rc.client()
				if err != nil {
					return err
				}
				sb, err := c.Subscribe()
				if err != nil {
					if IsTransient(err) {
						s.rc.invalidate(g)
					}
					return err
				}
				cli, gen, sub = c, g, sb
				return nil
			})
		if err != nil {
			s.fail(err)
			return
		}

		// Consume notifies until the connection dies or we're closed.
		// Each notify names the server's frame count n; catch-up walks
		// lastIdx+1..n-1 in order, so collapsed notifies cost nothing.
		alive := true
		for alive {
			select {
			case <-s.done:
				sub.Close()
				return
			case n, ok := <-sub.Updates:
				if !ok {
					// Connection lost mid-stream: drop this generation
					// and loop back to redial + resubscribe. Catch-up
					// picks up exactly after lastIdx.
					s.rc.invalidate(gen)
					alive = false
					break
				}
				if err := s.catchUp(cli, n, &lastIdx, &lastEnc); err != nil {
					if errors.Is(err, errReconnectClosed) {
						sub.Close()
						return
					}
					s.rc.invalidate(gen)
					sub.Close()
					alive = false
				}
			}
		}
	}
}

// catchUp fetches frames lastIdx+1 .. n-1 in order, each as a delta
// against the previous (the reconstructed encoding chains as the next
// base), and delivers them consumer-paced. A transient error aborts —
// the caller redials and retries the same span. A typed non-transient
// server error for one frame means it is truly gone (evicted from the
// live ring before we got there): it is counted and skipped, and the
// delta chain reseeds with a full fetch at the next frame.
func (s *ReconnectSub) catchUp(cli *Client, n int, lastIdx *int, lastEnc *[]byte) error {
	for i := *lastIdx + 1; i < n; i++ {
		_, enc, _, _, err := cli.FetchFrameDelta(i, *lastIdx, *lastEnc)
		if err != nil {
			if IsTransient(err) {
				return err
			}
			s.skipped.Add(1)
			*lastEnc = nil // base chain broken; reseed with a full fetch
			*lastIdx = i
			continue
		}
		select {
		case s.ch <- ResumedFrame{Index: i, Payload: enc}:
		case <-s.done:
			return errReconnectClosed
		}
		*lastIdx = i
		*lastEnc = enc
	}
	return nil
}
