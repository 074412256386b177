package remote

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/hybrid"
)

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

	c       *Client
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
// a previous session). On every connection loss the subscription
// re-subscribes — a dialed client redials under its retry policy — and
// catches up via GetDelta; the consumer just reads Frames. Over a
// NewClientConn client, which never redials, the feed ends with the
// connection.
func (c *Client) SubscribeResume(after int) (*ReconnectSub, error) {
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	s := &ReconnectSub{
		c:    c,
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

// run is the pump: subscribe, consume count notifies, and close every
// gap — whether from notify collapsing under load or from an outage
// between subscriptions — with GetDelta catch-up against the last
// delivered frame. lastIdx/lastEnc persist across reconnects; that is
// the whole resume mechanism. The redials themselves are the client's:
// Subscribe and each catch-up fetch retry on their own.
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
		sub, err := s.c.Subscribe()
		if err != nil {
			s.fail(err)
			return
		}
		// Consume notifies until the connection dies (Updates closes) or
		// a catch-up fails past the client's retries; either way the loop
		// re-subscribes and catch-up picks up exactly after lastIdx. Each
		// notify names the server's frame count n; catch-up walks
		// lastIdx+1..n-1 in order, so collapsed notifies cost nothing.
		for live := true; live; {
			select {
			case <-s.done:
				live = false
			case n, ok := <-sub.Updates:
				live = ok && s.catchUp(n, &lastIdx, &lastEnc) == nil
			}
		}
		sub.Close()
	}
}

// catchUp fetches frames lastIdx+1 .. n-1 in order, each as a delta
// against the previous (the reconstructed encoding chains as the next
// base), and delivers them consumer-paced. A transient error aborts —
// the caller re-subscribes and retries the same span. A typed
// non-transient server error for one frame means it is truly gone
// (evicted from the live ring before we got there): it is counted and
// skipped, and the delta chain reseeds with a full fetch at the next
// frame.
func (s *ReconnectSub) catchUp(n int, lastIdx *int, lastEnc *[]byte) error {
	for i := *lastIdx + 1; i < n; i++ {
		_, enc, _, _, err := s.c.FetchFrameDelta(i, *lastIdx, *lastEnc)
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
			return context.Canceled
		}
		*lastIdx = i
		*lastEnc = enc
	}
	return nil
}
