package remote

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/hybrid"
	"repro/internal/pipeline"
	"repro/internal/render"
	"repro/internal/volren"
)

// Service is the one server type of the protocol: every connection
// runs one loop (server.go), and the service answers the verbs of what
// it holds — the store verbs with a FrameStore (NewService), Compute
// and Kernels with kernels (NewWorker), Ping and Stats always. Any
// other verb gets a typed ErrCodeUnknownVerb error and the connection
// stays open.
type Service struct {
	// The listener, the live connections, and every goroutine serving
	// them: Close severs the connections and waits on wg.
	ln     net.Listener
	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	// draining refuses every request that would run on its own
	// goroutine (ErrCodeUnavailable) while Shutdown waits for inflight —
	// the graceful half of going away, vs Close's immediate severing.
	draining atomic.Bool
	inflight sync.WaitGroup

	store FrameStore // nil on a worker: no store verbs

	kmu     sync.RWMutex
	kernels map[string]Kernel // empty on a store service: no Compute or Kernels

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
	return newService(addr, store, nil, opts)
}

// newService listens on addr and serves store (nil: no store verbs)
// and kernels (none: no Compute or Kernels verbs).
func newService(addr string, store FrameStore, kernels map[string]Kernel, opts ServiceOptions) (*Service, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remote: %w", err)
	}
	s := &Service{
		ln:       ln,
		conns:    make(map[net.Conn]struct{}),
		store:    store,
		kernels:  make(map[string]Kernel),
		frames:   newBlobCache[int, []byte](frameCacheCap),
		renders:  newBlobCache[RenderParams, []byte](renderCacheCap),
		deltas:   newBlobCache[deltaKey, []byte](deltaCacheCap),
		opts:     opts,
		sessions: make(map[uint64]*session),
	}
	if opts.MaxRenders > 0 {
		s.renderGate = make(chan struct{}, opts.MaxRenders)
	}
	for name, k := range kernels {
		s.Register(name, k)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// answer computes the reply payload of one admitted request: the verb
// table. admit (server.go) has already refused the verbs s does not
// hold.
func (s *Service) answer(ctx context.Context, sess *session, w *connWriter, msg message) ([]byte, error) {
	switch msg.op {
	case opPing:
		s.stats[statPings].Add(1)
		return nil, nil
	case opStats:
		return encodeStatsReport(s.statsReport()), nil
	case opKernels:
		return encodeKernelList(s.Kernels())
	case opCompute:
		return s.compute(ctx, msg.payload)
	case opSubscribe:
		return s.subscribe(sess, w, msg)
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
	// opList: the one admitted verb left.
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
