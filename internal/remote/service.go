package remote

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hybrid"
	"repro/internal/pipeline"
	"repro/internal/render"
	"repro/internal/volren"
)

// Service is the visualization server: it owns a listening socket and
// serves a FrameStore to any number of concurrent clients over the v5
// protocol. Each connection multiplexes requests by ID — List, Get
// (full-frame transfer), GetDelta (XOR-residual transfer against a
// frame the client holds), Subscribe (live-frame push when the store
// is a LiveStore, e.g. a pipeline publishing into a LiveRing;
// optionally with inline frame payloads), Render (thin-client
// mode: the server renders on its tile-binned rasterizer and ships a
// compressed framebuffer — lossless RLE or the quantized preview tier
// — instead of the frame), Ping (heartbeat) and Stats (counters plus
// the per-session table).
// Compute requests belong to the Worker service; a Service answers
// them — like any other verb it does not speak — with a typed
// ErrCodeUnknownVerb error and keeps the connection open.
type Service struct {
	srv   *server
	store FrameStore

	// Encode-once caches: per-frame server work is independent of how
	// many clients ask. frames holds wire encodings for stores that
	// encode on demand; renders holds compressed framebuffers keyed by
	// the full request (frame, camera, TF, quality); deltas holds
	// XOR-residual blobs keyed by (frame, base). All are LRU-bounded
	// and single-flight: N concurrent identical requests run one fill.
	frames  *blobCache[int, []byte]
	renders *blobCache[RenderParams, []byte]
	deltas  *blobCache[deltaKey, []byte]

	// Overload protection (protocol v5): opts bounds sessions, renders
	// and per-subscriber send queues; renderGate is the MaxRenders
	// semaphore (nil = unlimited); the session table feeds the Stats
	// verb.
	opts       ServiceOptions
	renderGate chan struct{}

	smu      sync.Mutex
	sessions map[uint64]*session
	nextSess uint64
	admitted int

	// pipelineStats, when set, supplies the in-situ pipeline's stage
	// table for the Stats verb (protocol v8). Atomic so a live stream
	// can be attached after the service is already serving.
	pipelineStats atomic.Pointer[func() []pipeline.StageSnapshot]

	stats [numStats]atomic.Uint64 // indexed by the stat* constants
}

// The service counters, in the wire order of the Stats verb: one
// constant per ServiceStats field, in the order fields lists them.
const (
	statFrameEncodes = iota
	statFrameHits
	statRenders
	statRenderHits
	statDeltaEncodes
	statDeltaHits
	statNotifyFrames
	statNotifyCounts
	statPings
	statSessionsRefused
	statRendersRefused
	statPushesDropped
	statPushesDegraded
	statSessionsEvicted
	numStats
)

type deltaKey struct{ frame, base int }

// Cache capacities: a handful of recent frames absorbs a subscriber
// crowd riding the live head; renders get more room because distinct
// camera params multiply per frame.
const (
	frameCacheCap  = 8
	renderCacheCap = 32
	deltaCacheCap  = 16
)

// ServiceStats counts the service's per-frame work and how much of it
// the encode-once caches absorbed, plus the v5 overload counters. The
// fan-out contract is FrameEncodes ≈ frames served, independent of
// subscriber count — BenchmarkFanOut pins it; the overload contract is
// publisher latency independent of stalled-subscriber count —
// BenchmarkSlowSubscriber pins that.
type ServiceStats struct {
	FrameEncodes uint64 // frame wire encodings actually computed
	FrameHits    uint64 // Get/notify requests served from cache or flight
	Renders      uint64 // server-side renders actually run
	RenderHits   uint64 // render requests served from cache or flight
	DeltaEncodes uint64 // delta residuals actually compressed
	DeltaHits    uint64 // delta requests served from cache or flight
	NotifyFrames uint64 // inline frame payload notifies written
	NotifyCounts uint64 // count-only notifies written

	Pings           uint64 // heartbeat round trips answered
	SessionsRefused uint64 // connections refused by MaxSessions admission
	RendersRefused  uint64 // renders refused by the MaxRenders gate
	PushesDropped   uint64 // subscriber pushes dropped by the skip policy
	PushesDegraded  uint64 // subscriber pushes degraded to count-only
	SessionsEvicted uint64 // slow subscribers evicted (SlowEvict)
}

// fields lists the counters in the wire order of the Stats verb, the
// order of the stat* constants — for Service.Stats and both halves of
// the Stats codec. The array type makes the compiler hold the list to
// numStats entries.
func (s *ServiceStats) fields() [numStats]*uint64 {
	return [numStats]*uint64{
		&s.FrameEncodes, &s.FrameHits, &s.Renders, &s.RenderHits,
		&s.DeltaEncodes, &s.DeltaHits, &s.NotifyFrames, &s.NotifyCounts,
		&s.Pings, &s.SessionsRefused, &s.RendersRefused,
		&s.PushesDropped, &s.PushesDegraded, &s.SessionsEvicted,
	}
}

// Stats snapshots the service's work counters.
func (s *Service) Stats() (st ServiceStats) {
	for i, f := range st.fields() {
		*f = s.stats[i].Load()
	}
	return st
}

// tally counts one cache lookup that succeeded: a hit, or a fill that
// ran the work.
func (s *Service) tally(err error, hit bool, hitStat, fillStat int) {
	switch {
	case err != nil:
	case hit:
		s.stats[hitStat].Add(1)
	default:
		s.stats[fillStat].Add(1)
	}
}

// NewService starts a service for store on addr (use "127.0.0.1:0" for
// an ephemeral port) with default ServiceOptions: unlimited sessions
// and renders, latest-wins slow subscribers.
func NewService(addr string, store FrameStore) (*Service, error) {
	return NewServiceWith(addr, store, ServiceOptions{})
}

// NewServiceWith starts a service with explicit overload-protection
// options — session and render admission limits, send-queue bound,
// slow-subscriber policy, idle reaping.
func NewServiceWith(addr string, store FrameStore, opts ServiceOptions) (*Service, error) {
	if store == nil {
		return nil, fmt.Errorf("remote: nil frame store")
	}
	s := &Service{
		store:    store,
		frames:   newBlobCache[int, []byte](frameCacheCap),
		renders:  newBlobCache[RenderParams, []byte](renderCacheCap),
		deltas:   newBlobCache[deltaKey, []byte](deltaCacheCap),
		opts:     opts,
		sessions: make(map[uint64]*session),
	}
	if opts.MaxRenders > 0 {
		s.renderGate = make(chan struct{}, opts.MaxRenders)
	}
	srv, err := newServer(addr, s.handle)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	return s, nil
}

// Addr returns the listening address.
func (s *Service) Addr() string { return s.srv.Addr() }

// Close stops accepting, severs every connection, and waits for all
// handlers to unwind.
func (s *Service) Close() error { return s.srv.Close() }

// handle runs one connection: handshake, then a read loop dispatching
// each request to its own goroutine so expensive renders don't stall
// pipelined fetches. A framing error (bad length, bad CRC) terminates
// the connection — the stream can no longer be trusted. A well-framed
// request for a verb this service does not speak is answered with a
// typed ErrCodeUnknownVerb error and the connection stays up: framing
// integrity is intact, and the two service roles share one protocol —
// a client that sends Compute to a frame service (or Get to a worker)
// deserves an answer it can classify, not a dropped session.
//
// v5 adds the session envelope: every connection gets a session-table
// row and an admission verdict (an over-limit session answers all
// verbs but Ping with a retryable ErrCodeUnavailable), a read deadline
// reaps peers that go silent past the idle timeout (live v5 clients
// heartbeat well inside it), and Subscribe pushes flow through a
// bounded per-session send queue instead of an unbounded notifier. The
// idle deadline covers the handshake too: a peer that connects and never
// says hello is reaped like one that goes quiet later.
func (s *Service) handle(conn net.Conn) {
	idle := orDefault(s.opts.IdleTimeout, DefaultServiceIdleTimeout)
	if idle > 0 {
		conn.SetReadDeadline(time.Now().Add(idle))
	}
	if err := serverHello(conn); err != nil {
		return
	}
	sess := s.addSession(conn.RemoteAddr().String())
	defer s.removeSession(sess)

	br := bufio.NewReaderSize(conn, 1<<16)
	w := newConnWriter(conn)

	var reqs sync.WaitGroup
	defer reqs.Wait()

	for {
		if idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle))
		}
		msg, err := readMessage(br, 0)
		if err != nil {
			return
		}
		// Heartbeat: answered inline for every session — including
		// refused ones, so a waiting-to-retry client can keep its
		// connection warm — and cheap enough to never need a goroutine.
		if msg.op == opPing {
			s.stats[statPings].Add(1)
			if w.reply(msg.reqID, opPing, nil, nil) != nil {
				return
			}
			continue
		}
		if sess.refused {
			if w.sendErr(msg.reqID, &WireError{
				Code: ErrCodeUnavailable,
				Msg:  "remote: server at session capacity, retry later",
			}) != nil {
				return
			}
			continue
		}
		switch msg.op {
		case opList, opGet, opGetDelta, opRender:
			reqs.Add(1)
			go func(m message) {
				defer reqs.Done()
				out, err := s.serveRequest(m)
				w.reply(m.reqID, m.op, out, err)
			}(msg)
		case opStats:
			if w.reply(msg.reqID, opStats, encodeStatsReport(s.statsReport()), nil) != nil {
				return
			}
		case opSubscribe:
			var flags byte
			switch len(msg.payload) {
			case 0: // count-only notifies
			case 1:
				flags = msg.payload[0]
			default:
				err := fmt.Errorf("remote: subscribe payload %d bytes, want 0 or 1", len(msg.payload))
				if w.sendErr(msg.reqID, badRequest(err)) != nil {
					return
				}
				continue
			}
			// Register the watcher before reading the count so no
			// publish can fall between them unseen. A re-subscribe
			// replaces the queue, so pushes follow the newest
			// request ID.
			if live, ok := s.store.(LiveStore); ok {
				if old := sess.q.Swap(nil); old != nil {
					old.stop()
				}
				sess.q.Store(newSubQueue(s, live, w, msg.reqID, flags&subFlagInline != 0))
			}
			if w.reply(msg.reqID, opSubscribe, encodeCount(s.store.NumFrames()), nil) != nil {
				return
			}
		default:
			if w.sendErr(msg.reqID, &WireError{
				Code: ErrCodeUnknownVerb,
				Msg:  fmt.Sprintf("remote: service does not speak opcode %#02x", msg.op),
			}) != nil {
				return
			}
		}
	}
}

// serveRequest computes the reply payload of one List/Get/GetDelta/Render
// request.
func (s *Service) serveRequest(msg message) ([]byte, error) {
	switch msg.op {
	case opGet:
		idx, err := decodeIndex(msg.payload)
		if err != nil {
			return nil, badRequest(err)
		}
		return s.encodedFrame(idx)
	case opGetDelta:
		frame, base, err := decodeGetDelta(msg.payload)
		if err != nil {
			return nil, badRequest(err)
		}
		return s.deltaBlob(frame, base)
	case opRender:
		params, err := decodeRenderParams(msg.payload)
		if err != nil {
			return nil, badRequest(err)
		}
		return s.renderBlob(params)
	}
	return encodeListInfo(listInfo(s.store)), nil
}

// encodedFrame returns frame i in wire encoding. Stores holding the
// encoding (MemStore, LiveRing — encode-once at construction/publish)
// serve it directly; anything else goes through the frame cache, so N
// concurrent Gets of the same frame cost one encode.
func (s *Service) encodedFrame(i int) ([]byte, error) {
	if es, ok := s.store.(encodedFrameStore); ok {
		return es.EncodedFrame(i)
	}
	enc, hit, err := s.frames.get(i, func() ([]byte, error) {
		rep, err := s.store.Frame(i)
		if err != nil {
			return nil, err
		}
		return rep.AppendBinary(nil), nil
	})
	s.tally(err, hit, statFrameHits, statFrameEncodes)
	return enc, err
}

// deltaBlob returns frame encoded as an XOR residual against base —
// the GetDelta response — through the delta cache, so a subscriber
// crowd stepping frame-to-frame costs one residual encode per
// (frame, base) pair.
func (s *Service) deltaBlob(frame, base int) ([]byte, error) {
	blob, hit, err := s.deltas.get(deltaKey{frame, base}, func() ([]byte, error) {
		// Base first: it is the frame this viewer read last, and cur's
		// read must not find it the oldest entry of a DirStore's window.
		baseEnc, err := s.encodedFrame(base)
		if err != nil {
			return nil, fmt.Errorf("remote: delta base: %w", err)
		}
		cur, err := s.encodedFrame(frame)
		if err != nil {
			return nil, err
		}
		return render.CompressDelta(cur, baseEnc), nil
	})
	s.tally(err, hit, statDeltaHits, statDeltaEncodes)
	return blob, err
}

// renderBlob returns the wire blob for a render request through the
// render cache: identical thin-client views (same frame, camera, TF
// and quality tier) hit a cached compressed framebuffer.
func (s *Service) renderBlob(p RenderParams) ([]byte, error) {
	blob, hit, err := s.renders.get(p, func() ([]byte, error) {
		return s.renderFrame(p)
	})
	s.tally(err, hit, statRenderHits, statRenders)
	return blob, err
}

// renderFrame runs the server-side render: the exact volren.RenderStill
// path a desktop viewer runs locally (core.RenderFrame), so the
// lossless tier is bit-identical to a local render of the fetched
// frame. The preview tier swaps only the wire codec — quantized 8-bit
// color, no depth — never the render itself.
func (s *Service) renderFrame(p RenderParams) ([]byte, error) {
	if s.renderGate != nil {
		select {
		case s.renderGate <- struct{}{}:
			defer func() { <-s.renderGate }()
		default:
			s.stats[statRendersRefused].Add(1)
			return nil, &WireError{
				Code: ErrCodeUnavailable,
				Msg:  "remote: render capacity exhausted, retry later",
			}
		}
	}
	rep, err := s.store.Frame(p.Frame)
	if err != nil {
		return nil, err
	}
	tf, err := hybrid.DefaultTF(rep)
	if err != nil {
		return nil, err
	}
	if p.VolumeOpacity > 0 {
		tf.OpacityScale = p.VolumeOpacity
	}
	if p.LogDomainK > 0 {
		tf.Domain = hybrid.LogDomain(p.LogDomainK)
	}
	fb, _, _, err := volren.RenderStill(rep, tf, p.Width, p.Height, p.ViewDir)
	if err != nil {
		return nil, err
	}
	if p.Quality == QualityPreview {
		return render.CompressFramebufferQuantized(fb), nil
	}
	return render.CompressFramebuffer(fb), nil
}

// The per-subscription push machinery (previously `notifier`, now the
// bounded policy-aware `subQueue`) lives in session.go.
