package remote

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pipeline"
)

// This file is the server half of the protocol v5 session-resilience
// layer: per-connection sessions with bounded, policy-governed send
// queues, so the service sheds or degrades slow viewers instead of
// letting one stalled connection wedge the broadcast path — the ISAAC
// idiom of degrading viewers rather than backpressuring the
// simulation. The client half is the dialed Client's redial (client.go)
// and the resumable subscription (resume.go).

// SlowPolicy selects what the service does when a subscriber's bounded
// send queue overflows — i.e. when the connection cannot drain pushes
// as fast as the pipeline publishes frames. Whatever the policy, the
// publisher itself never blocks: LiveRing.Publish's watcher callback
// only enqueues.
type SlowPolicy uint8

const (
	// SlowSkip (the default) drops the oldest queued pushes and keeps
	// the newest — the subscriber skips to the live head when it
	// catches up, exactly the latest-wins contract the client-side
	// Subscription channels already expose.
	SlowSkip SlowPolicy = iota
	// SlowDegrade switches an inline-payload subscriber to the cheap
	// tier while it is behind: queued pushes collapse to the newest and
	// go out as count-only notifies (no frame payload) until the queue
	// drains, so a struggling viewer keeps a live frame counter and
	// catches frames back up via GetDelta at its own pace.
	SlowDegrade
	// SlowEvict drops the subscriber: a best-effort retryable
	// ErrCodeUnavailable reply is sent (bounded by a write deadline —
	// the connection may already be wedged) and the connection is
	// closed. A client made by Dial classifies the loss transient and
	// redials; the freed queue protects everyone else.
	SlowEvict
)

func (p SlowPolicy) String() string {
	switch p {
	case SlowSkip:
		return "skip"
	case SlowDegrade:
		return "degrade"
	case SlowEvict:
		return "evict"
	}
	return "unknown"
}

// Defaults for ServiceOptions' zero values.
const (
	// DefaultSendQueue bounds each subscriber's pending-push queue: a
	// briefly slow viewer still sees every frame, a persistently slow
	// one hits the SlowPolicy.
	DefaultSendQueue = 8
	// DefaultServiceIdleTimeout reaps connections that go silent. v5
	// clients heartbeat every DefaultHeartbeatInterval, so a live
	// client never comes close; a dead peer holds a session (and its
	// blocked send queue) for at most this long.
	DefaultServiceIdleTimeout = 2 * time.Minute
)

// ServiceOptions tune the v5 overload protection. The zero value keeps
// every historical behavior: unlimited sessions and renders, skip
// (latest-wins) slow-subscriber handling, and the default idle reaper.
type ServiceOptions struct {
	// MaxSessions bounds concurrent client connections; 0 means
	// unlimited. Over-limit connections still handshake (the protocol
	// has no refusal hello) but answer every verb except Ping with a
	// retryable ErrCodeUnavailable — admission refuses loudly rather
	// than degrading everyone already admitted.
	MaxSessions int
	// MaxRenders bounds concurrent server-side renders across all
	// sessions; 0 means unlimited. A render arriving while all slots
	// are busy answers ErrCodeUnavailable instead of queueing without
	// bound behind the rasterizer.
	MaxRenders int
	// IdleTimeout reaps a connection that sends nothing (not even a
	// heartbeat, nor its handshake) for this long. 0 means
	// DefaultServiceIdleTimeout; negative disables the reaper.
	IdleTimeout time.Duration
	// SendQueue bounds each subscriber's pending-push queue (0 means
	// DefaultSendQueue, minimum 1).
	SendQueue int
	// Slow selects the overflow policy for subscribers whose queue
	// fills: SlowSkip, SlowDegrade or SlowEvict.
	Slow SlowPolicy
}

func (o ServiceOptions) sendQueue() int {
	if o.SendQueue <= 0 {
		return DefaultSendQueue
	}
	return o.SendQueue
}

// session is one connection's server-side state: identity for the
// Stats table, the admission verdict, and the subscription queue when
// the client subscribes.
type session struct {
	id      uint64
	remote  string
	refused bool // admission-refused at accept; answers only Ping

	q atomic.Pointer[subQueue] // active subscription's send queue, nil if none
}

// addSession registers a new connection and decides admission: the
// connection is admitted iff the admitted count is under MaxSessions.
// A refused session still occupies a table row (visible in Stats) but
// never counts toward the limit, so a burst of refused dials cannot
// starve the clients that got in.
func (s *Service) addSession(remote string) *session {
	s.smu.Lock()
	defer s.smu.Unlock()
	s.nextSess++
	sess := &session{id: s.nextSess, remote: remote}
	if s.opts.MaxSessions > 0 && s.admitted >= s.opts.MaxSessions {
		sess.refused = true
		s.stats[statSessionsRefused].Add(1)
	} else {
		s.admitted++
	}
	s.sessions[sess.id] = sess
	return sess
}

func (s *Service) removeSession(sess *session) {
	s.smu.Lock()
	if _, ok := s.sessions[sess.id]; ok {
		delete(s.sessions, sess.id)
		if !sess.refused {
			s.admitted--
		}
	}
	s.smu.Unlock()
	if q := sess.q.Swap(nil); q != nil {
		q.stop()
	}
}

// subscribe answers a Subscribe request: the store's frame count, after
// registering sess's send queue when the store is live. The watcher is
// registered before the count is read, so no publish falls between them
// unseen; a re-subscribe replaces the queue, so pushes follow the newest
// request ID.
func (s *Service) subscribe(sess *session, w *connWriter, msg message) ([]byte, error) {
	var flags byte
	switch len(msg.payload) {
	case 0: // count-only notifies
	case 1:
		flags = msg.payload[0]
	default:
		return nil, badRequest(fmt.Errorf("remote: subscribe payload %d bytes, want 0 or 1", len(msg.payload)))
	}
	if live, ok := s.store.(LiveStore); ok {
		if old := sess.q.Swap(nil); old != nil {
			old.stop()
		}
		sess.q.Store(newSubQueue(s, live, w, msg.reqID, flags&subFlagInline != 0))
	}
	return encodeCount(s.store.NumFrames()), nil
}

// statsReport builds the Stats verb's response: service counters plus
// the per-session table, sorted by session id (map order is random;
// operators diffing two reports want stable rows).
func (s *Service) statsReport() StatsReport {
	r := StatsReport{Stats: s.Stats()}
	s.smu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.smu.Unlock()
	slices.SortFunc(sessions, func(a, b *session) int { return cmp.Compare(a.id, b.id) })
	for _, sess := range sessions {
		row := SessionStats{ID: sess.id, Remote: sess.remote, Refused: sess.refused}
		if q := sess.q.Load(); q != nil {
			row.Subscribed = true
			row.Inline = q.inline
			q.mu.Lock()
			row.QueueDepth = len(q.pending)
			row.QueueCap = q.cap
			row.Dropped = q.dropped
			row.Degraded = q.degraded
			row.Sent = q.sent
			row.LastSent = q.lastSent
			q.mu.Unlock()
		}
		r.Sessions = append(r.Sessions, row)
	}
	if fn := s.pipelineStats.Load(); fn != nil {
		r.Pipeline = (*fn)()
	}
	return r
}

// SetPipelineStats registers the telemetry hook a live service
// publishes through the Stats verb: fn (typically a running stream's
// Snapshot method) is called per Stats request and its stage table
// rides the v8 response. A nil fn (or never calling this) reports no
// table — the store-backed case. Safe to call while serving.
func (s *Service) SetPipelineStats(fn func() []pipeline.StageSnapshot) {
	if fn == nil {
		s.pipelineStats.Store(nil)
		return
	}
	s.pipelineStats.Store(&fn)
}

// subQueue is one subscriber's bounded send queue: the store's watcher
// callback enqueues frame counts (never blocking — this is what keeps
// a slow client from backpressuring the simulation), and a dedicated
// drain goroutine writes them to the connection as fast as it accepts,
// applying the service's SlowPolicy when the queue overflows.
//
// In inline mode each drained push ships the newest frame's wire
// encoding in the notify itself. The encoding comes from the store's
// publish-time cache or the service's single-flight frame cache, so
// one encode feeds every subscriber and the same buffer is written to
// every connection (only the 12-byte header is per-connection). A
// frame that is gone by the time the drain runs (live rings evict), or
// a push sent while the SlowDegrade policy has the subscriber marked
// behind, degrades to a count-only notify.
//
// The queue owns the subscription's lifetime: it holds the store watch
// it was registered with, and stop ends both.
type subQueue struct {
	svc     *Service
	w       *connWriter
	reqID   uint64
	inline  bool
	cap     int
	policy  SlowPolicy
	unwatch func() // cancels the store watch feeding update

	mu       sync.Mutex
	cond     *sync.Cond
	pending  []int // queued frame counts, ascending
	behind   bool  // SlowDegrade latch: drain count-only until empty
	stopped  bool
	evicting bool
	done     chan struct{}

	// Stats, guarded by mu.
	dropped, degraded, sent uint64
	lastSent                int
}

// newSubQueue builds the queue, starts its drain goroutine and
// registers it as a watcher of store.
func newSubQueue(s *Service, store LiveStore, w *connWriter, reqID uint64, inline bool) *subQueue {
	q := &subQueue{
		svc:    s,
		w:      w,
		reqID:  reqID,
		inline: inline,
		cap:    s.opts.sendQueue(),
		policy: s.opts.Slow,
		done:   make(chan struct{}),
	}
	q.cond = sync.NewCond(&q.mu)
	go q.drain()
	q.unwatch = store.Watch(q.update)
	return q
}

// update is the store watcher callback. It never blocks: enqueue, and
// on overflow apply the slow-subscriber policy inline (drop head,
// latch degrade, or trigger eviction).
func (q *subQueue) update(frames int) {
	q.mu.Lock()
	if q.stopped {
		q.mu.Unlock()
		return
	}
	if n := len(q.pending); n > 0 && frames <= q.pending[n-1] {
		q.mu.Unlock()
		return // stale or duplicate count
	}
	q.pending = append(q.pending, frames)
	var evict bool
	if len(q.pending) > q.cap {
		switch q.policy {
		case SlowSkip:
			q.pending = q.pending[1:]
			q.dropped++
			q.svc.stats[statPushesDropped].Add(1)
		case SlowDegrade:
			q.pending = q.pending[1:]
			q.behind = true
			q.degraded++
			q.svc.stats[statPushesDegraded].Add(1)
		case SlowEvict:
			q.stopped = true
			q.evicting = true
			evict = true
		}
	}
	q.mu.Unlock()
	q.cond.Signal()
	if evict {
		q.svc.stats[statSessionsEvicted].Add(1)
		// Off the watcher callback — update runs inside the publisher's
		// Publish, which must never block, not even for the bounded
		// eviction write. Unwedge a drain blocked mid-write, best-effort
		// deliver the typed refusal, then sever. The deadline covers
		// both: a wedged in-flight write errors out, and the error reply
		// cannot hang.
		go func() {
			q.w.conn.SetWriteDeadline(time.Now().Add(evictWriteDeadline))
			q.w.sendErr(q.reqID, &WireError{
				Code: ErrCodeUnavailable,
				Msg:  "remote: subscriber too slow, evicted — reconnect and resume",
			})
			q.w.conn.Close()
		}()
	}
}

// evictWriteDeadline bounds the best-effort eviction notice to a
// stalled subscriber before its connection is severed.
const evictWriteDeadline = 250 * time.Millisecond

// drain writes queued pushes in order until stopped or the connection
// dies. Inline payloads are fetched through the service's encode-once
// caches outside the queue lock.
func (q *subQueue) drain() {
	defer close(q.done)
	for {
		q.mu.Lock()
		for len(q.pending) == 0 && !q.stopped {
			q.cond.Wait()
		}
		if q.stopped {
			q.mu.Unlock()
			return
		}
		frames := q.pending[0]
		q.pending = q.pending[1:]
		degraded := q.behind
		if len(q.pending) == 0 {
			q.behind = false // caught up; inline service resumes
		}
		q.mu.Unlock()

		if q.inline && !degraded && frames > 0 {
			var buf [16]byte
			head := appendNotifyFrameHeader(buf[:0], frames)
			if enc, err := q.svc.encodedFrame(frames - 1); err == nil &&
				len(head)+len(enc) <= maxBody-msgOverhead {
				if q.w.send(q.reqID, opNotifyFrame, head, enc) != nil {
					return
				}
				q.svc.stats[statNotifyFrames].Add(1)
				q.noteSent(frames)
				continue
			}
		}
		if q.w.send(q.reqID, opNotify, encodeCount(frames)) != nil {
			return
		}
		q.svc.stats[statNotifyCounts].Add(1)
		q.noteSent(frames)
	}
}

func (q *subQueue) noteSent(frames int) {
	q.mu.Lock()
	q.sent++
	q.lastSent = frames
	q.mu.Unlock()
}

// stop ends the store watch, terminates the drain goroutine and waits
// for it. An evicted queue's drain may be parked in a write; the
// eviction path already set a deadline and closed the connection, which
// unblocks it.
func (q *subQueue) stop() {
	q.unwatch()
	q.mu.Lock()
	q.stopped = true
	q.mu.Unlock()
	q.cond.Signal()
	<-q.done
}
