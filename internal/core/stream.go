package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/beam"
	"repro/internal/emsim"
	"repro/internal/hybrid"
	"repro/internal/octree"
	"repro/internal/pario"
	"repro/internal/pipeline"
	"repro/internal/remote"
	"repro/internal/render"
	"repro/internal/seeding"
	"repro/internal/sos"
	"repro/internal/vec"
	"repro/internal/volren"
)

// FrameSource feeds particle frames into a stream: simulation
// snapshots, an in-memory slice, or pario frame files. emit returns
// false once the stream is cancelled; the source should then stop.
type FrameSource func(ctx context.Context, emit func(beam.Frame) bool) error

// SimSource captures nFrames snapshots from sim, advancing
// periodsPerFrame lattice periods before each capture. The simulation
// steps serially on the source goroutine, so frame N+1 simulates while
// frame N flows through the downstream stages. Inside a stream a
// snapshot refills an ensemble the stream lends (see streamStorage)
// instead of cloning a fresh one.
func SimSource(sim *beam.Sim, nFrames, periodsPerFrame int) FrameSource {
	return func(ctx context.Context, emit func(beam.Frame) bool) error {
		for i := 0; i < nFrames; i++ {
			if ctx.Err() != nil {
				return nil
			}
			sim.RunPeriods(periodsPerFrame)
			f := beam.Frame{Step: sim.Steps(), S: sim.S, E: sim.Particles.CloneInto(lendEnsemble(ctx))}
			if !emit(f) {
				return nil
			}
		}
		return nil
	}
}

// FrameSliceSource emits the given frames in order.
func FrameSliceSource(frames ...beam.Frame) FrameSource {
	return func(_ context.Context, emit func(beam.Frame) bool) error {
		for _, f := range frames {
			if !emit(f) {
				return nil
			}
		}
		return nil
	}
}

// FrameFileSource reads pario frame files (.acpf) in order, so file
// I/O overlaps the compute stages downstream. Inside a stream the
// columns land in an ensemble the stream lends.
func FrameFileSource(paths ...string) FrameSource {
	return func(ctx context.Context, emit func(beam.Frame) bool) error {
		for _, path := range paths {
			f, err := pario.ReadFrameFileInto(path, lendEnsemble(ctx))
			if err != nil {
				return err
			}
			if !emit(f) {
				return nil
			}
		}
		return nil
	}
}

// streamStorage is what one stream lends its stages and takes back, so
// that a steady stream re-allocates neither ensembles, octree scratch
// nor trees. Ownership is the point: a Tree outlives its stage and an
// Ensemble its source, so storage returns here — to the stream — from
// whichever stage finishes with it, and only storage the stream lent:
//
//   - ensembles reach a source through its context (lendEnsemble) and
//     come back from the partition stage, or from the fleet extract
//     stage once the fleet has answered. put ignores an ensemble the
//     list did not lend, so the frames of a FrameSliceSource, or of any
//     source that allocates its own, stay the caller's. A source that
//     needs a frame's particles reads them before it emits the frame;
//   - builders never leave the partition stage;
//   - a tree is retired by the extract stage the moment hybrid.Extract
//     returns (Extract copies what it keeps) and refilled by a later
//     partition. With SkipExtract the trees are the consumer's and none
//     is ever retired.
//
// Every list is bounded by a constant; frames in flight beyond it are
// allocated and dropped as before.
type streamStorage struct {
	ens      ensembleList
	builders *pipeline.FreeList[*octree.Builder]
	trees    *pipeline.FreeList[*octree.Tree]
}

func newStreamStorage() *streamStorage {
	return &streamStorage{
		builders: pipeline.NewFreeList(func() *octree.Builder { return new(octree.Builder) }),
		trees:    pipeline.NewFreeList(func() *octree.Tree { return nil }),
	}
}

// partition builds the frame's octree straight from the ensemble's
// three plotted columns on one of the stream's builders — refilling a
// retired tree when reuseTree is set — and hands the ensemble back.
func (st *streamStorage) partition(p *ParticlePipeline, r *StreamResult, reuseTree bool) (*octree.Tree, error) {
	e := r.Frame.E
	var retired *octree.Tree
	if reuseTree {
		retired = st.trees.Get()
	}
	b := st.builders.Get()
	t, err := b.BuildColumns(e.Coord(p.Axes[0]), e.Coord(p.Axes[1]), e.Coord(p.Axes[2]), p.Tree, retired)
	st.builders.Put(b)
	if err != nil {
		return nil, err
	}
	st.release(r)
	return t, nil
}

// release drops the result's ensemble, handing it back to the list if
// the list lent it.
func (st *streamStorage) release(r *StreamResult) {
	st.ens.put(r.Frame.E)
	r.Frame.E = nil
}

// ensembleList lends ensembles and takes back only what it lent.
type ensembleList struct {
	mu         sync.Mutex
	free, lent []*beam.Ensemble // each at most maxLentEnsembles
}

const maxLentEnsembles = 8

type ensembleListKey struct{}

// lendEnsemble returns an ensemble for a source to fill: one of the
// stream's when ctx is the context a recycling stream handed its
// source, else a fresh one that is the caller's.
func lendEnsemble(ctx context.Context) *beam.Ensemble {
	l, ok := ctx.Value(ensembleListKey{}).(*ensembleList)
	if !ok {
		return new(beam.Ensemble)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e := new(beam.Ensemble)
	if n := len(l.free); n > 0 {
		e, l.free = l.free[n-1], l.free[:n-1]
	}
	if len(l.lent) < maxLentEnsembles {
		l.lent = append(l.lent, e) // beyond the bound it is simply never taken back
	}
	return e
}

func (l *ensembleList) put(e *beam.Ensemble) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, x := range l.lent {
		if x == e {
			last := len(l.lent) - 1
			l.lent[i], l.lent = l.lent[last], l.lent[:last]
			l.free = append(l.free, e)
			return
		}
	}
}

// FrameSink is the write side of the visualization service: a
// streaming pipeline publishes each extracted hybrid frame here, in
// frame order, so remote viewers watch a running simulation (in-situ
// mode). remote.LiveRing satisfies it; so does any collector. Publish
// errors fail the stream.
type FrameSink interface {
	Publish(index int, rep *hybrid.Representation) error
}

// LiveRing is the FrameSink the in-situ examples and CLIs publish
// into.
var _ FrameSink = (*remote.LiveRing)(nil)

// placeStage dials the fleet that runs a placed stage's kernel at
// addrs (nil when addrs is empty: the stage runs locally) and closes it
// when the stream ends. A single address is a one-member fleet; window
// is each member's in-flight bound, and policy tunes the rest. Every
// member must advertise kernel.
func placeStage(pl *pipeline.Pipeline, stage string, addrs []string, kernel string, window int, policy *remote.FleetOptions) (*remote.Fleet, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	var fo remote.FleetOptions
	if policy != nil {
		fo = *policy
	}
	fo.Kernel = kernel
	fo.Window = window
	fl, err := remote.NewFleet(addrs, fo)
	if err != nil {
		return nil, fmt.Errorf("core: dialing %s worker %s: %w", stage, strings.Join(addrs, ","), err)
	}
	pl.Defer(func() { fl.Close() })
	return fl, nil
}

// RenderOptions appends a render stage to a particle stream. Each
// frame's point pass splats serially and its volume pass ray-casts on
// all cores, so the stage parallelizes along two axes: Workers
// concurrent frames, each ray-casting across all cores.
type RenderOptions struct {
	Width, Height int     // framebuffer size (default 512x512)
	ViewDir       vec.V3  // view direction (default {0.4, 0.3, 1})
	PointScale    float64 // point splat radius in pixels (default 1.5)
	Opaque        bool    // draw points fully opaque (Fig 4 style)
	Workers       int     // concurrent frames in the render stage

	// Partitions is the number of sub-volume partitions each frame's
	// point pass splits into when StreamOptions.RenderAddrs places
	// rendering on a fleet (0 = one per fleet member). The composited
	// frame is bit-identical at every partition count; more partitions
	// than members smooths the striping when sub-volumes have uneven
	// screen footprints. Ignored for local rendering.
	Partitions int
}

func (o RenderOptions) withDefaults() RenderOptions {
	if o.Width <= 0 {
		o.Width = 512
	}
	if o.Height <= 0 {
		o.Height = 512
	}
	if o.ViewDir == (vec.V3{}) {
		o.ViewDir = vec.New(0.4, 0.3, 1)
	}
	if o.PointScale <= 0 {
		o.PointScale = 1.5
	}
	return o
}

// StreamOptions sizes the stages of a particle frame stream. The zero
// value gives a fully serial stream (one frame in flight per stage)
// that still overlaps stages: with three pipeline stages, three
// successive frames are in flight at once. No option keeps a frame's
// ensemble for the consumer; see StreamResult.
type StreamOptions struct {
	PartitionWorkers int // concurrent frames in the partition stage (0 = 1)
	ExtractWorkers   int // concurrent frames in the extract stage (0 = 1)
	Buffer           int // inter-stage channel depth in frames (0 = 1)

	SkipExtract bool // stop after partition (the paper's partitioning program), keeping the trees

	// Render, when non-nil, appends a render stage. Rendering needs a
	// hybrid representation, so Render is incompatible with SkipExtract;
	// StreamFrames rejects the combination.
	Render *RenderOptions

	// Sink, when non-nil, appends a publish stage after extraction:
	// every hybrid frame is pushed into the sink in frame order (the
	// in-situ mode — publish into a remote.LiveRing served by a
	// remote.Service and clients watch the run live). Publish must not
	// block on consumers: the service's per-subscriber send queues (and
	// the ring's latest-wins eviction) absorb slow viewers, so a stalled
	// remote client never backpressures this pipeline. Incompatible
	// with SkipExtract.
	Sink FrameSink

	// ExtractAddrs, when non-empty, places the heavy per-frame compute —
	// octree partition plus hybrid extraction — on remote worker
	// processes (cmd/vizworker, or in-process remote.Workers) at those
	// addresses: the paper's split of simulation and visualization
	// compute across machines. The stage projects each frame locally
	// (cheap), ships the point set over the service protocol's Compute
	// verb, and receives the hybrid representation back, bit-identical
	// to running the same configs locally, whatever the core counts of
	// the two hosts. Frames stripe across the
	// healthy members of the fleet (ExtractWorkers in flight per worker,
	// overlapping wide-area round-trips on one multiplexed connection
	// each), a worker that fails or hangs mid-frame forfeits its frames
	// to surviving members (bit-identical re-dispatch, order preserved
	// by the stage reorderer), ejected workers are re-probed and
	// rejoin, and the stream fails — through the usual first-error
	// drain — only when no worker can serve a frame within the retry
	// policy. Every member must advertise the hybrid-extraction kernel;
	// a mis-provisioned member fails the stream at startup.
	// Incompatible with SkipExtract (the tree only ever exists on the
	// worker).
	ExtractAddrs []string

	// ExtractPolicy optionally tunes the extraction fleet's
	// robustness machinery — per-attempt timeout, retry policy,
	// ejection threshold, probe interval, bandwidth model, custom
	// dialer. Kernel and Window are owned by the stream (the kernel
	// is always hybrid extraction; the window is ExtractWorkers). nil
	// means defaults.
	ExtractPolicy *remote.FleetOptions

	// RenderAddrs places each frame's point pass on a fleet of render
	// workers — sort-last distributed rendering. The stage splits the
	// frame's hybrid point set along the octree partition into
	// Render.Partitions contiguous sub-volumes, fans them across the
	// fleet's render.partial.v1 kernels (striping, retry/failover and
	// per-member windows exactly as ExtractAddrs), and composites the
	// returned RGBA+depth partials back in partition order before
	// ray-casting the density volume locally over the merged image.
	// The composited frame is bit-identical to the single-node render
	// at every partition count, every worker count, and across a
	// worker lost mid-frame. Requires Render; every member must
	// advertise the render kernel.
	RenderAddrs []string

	// RenderPolicy optionally tunes the render fleet the way
	// ExtractPolicy tunes the extraction fleet. Kernel and Window are
	// owned by the stream (always render.partial.v1; the window is
	// Render.Workers). nil means defaults.
	RenderPolicy *remote.FleetOptions
}

// StreamResult is the per-frame output of StreamFrames, emitted in
// frame order regardless of per-stage worker counts. The stream takes
// each frame's ensemble back once the frame is partitioned, so a
// consumer that needs the particles reads them in its FrameSource,
// before it emits the frame.
type StreamResult struct {
	Index int
	Frame beam.Frame             // Step and S; Frame.E is nil
	Tree  *octree.Tree           // nil unless SkipExtract
	Rep   *hybrid.Representation // nil when SkipExtract
	FB    *render.Framebuffer    // nil unless Render
	Rast  *render.Rasterizer     // point-pass stats; nil when the point pass ran on a render fleet
	VR    *volren.Renderer       // volume-pass stats, when rendered
}

// ParticleStream is a running particle frame stream: range over Out
// (frames arrive in order), then Wait; Cancel aborts mid-frame.
// Snapshot (via the embedded Stream) exposes the per-stage telemetry
// table.
type ParticleStream struct {
	*pipeline.Stream[StreamResult]
	fbs *pipeline.FreeList[*render.Framebuffer]
}

// RecycleFB returns a rendered framebuffer to the stream's free list
// once the caller is done with it, so long streams reuse a bounded set
// of framebuffers. Only framebuffers received from this stream's
// results may be recycled.
func (s *ParticleStream) RecycleFB(fb *render.Framebuffer) {
	if fb != nil && s.fbs != nil {
		s.fbs.Put(fb)
	}
}

// StreamFrames runs the §2 chain — simulate → project → octree
// partition → hybrid extract → (optionally) render — as a staged
// stream over the frames src emits. Stages are connected by bounded
// channels, so while frame N+1 is being partitioned, frame N is being
// extracted and frame N-1 rendered; per-stage worker counts add
// frame-level parallelism within a stage. Output order always matches
// frame order and, for equal per-stage configurations, the results are
// bit-identical to the serial one-shot path, at every worker count and
// on every core count.
func (p *ParticlePipeline) StreamFrames(ctx context.Context, src FrameSource, opts StreamOptions) *ParticleStream {
	pl := pipeline.New(ctx)
	fail := func(err error) *ParticleStream {
		pl.Fail(err)
		out := make(chan StreamResult)
		close(out)
		return &ParticleStream{Stream: pipeline.NewStream(pl, out)}
	}
	if opts.SkipExtract && (opts.Render != nil || opts.Sink != nil) {
		return fail(fmt.Errorf("core: StreamOptions.Render/Sink require extraction; unset SkipExtract"))
	}
	if len(opts.RenderAddrs) > 0 && opts.Render == nil {
		return fail(fmt.Errorf("core: StreamOptions.RenderAddrs places rendering remotely; set Render"))
	}
	addrs := opts.ExtractAddrs
	if len(addrs) > 0 && opts.SkipExtract {
		return fail(fmt.Errorf("core: StreamOptions.ExtractAddrs places extraction remotely; unset SkipExtract"))
	}
	buf := opts.Buffer
	if buf < 1 {
		buf = 1
	}
	// Resolve the documented worker defaults (0 = 1) here — the
	// pipeline engine rejects Workers <= 0 rather than guessing.
	partW := workersOr1(opts.PartitionWorkers)
	extW := workersOr1(opts.ExtractWorkers)
	renderW := 1
	if opts.Render != nil {
		renderW = workersOr1(opts.Render.Workers)
	}

	// Build the worker fleets before starting any stage goroutine, so a
	// bad address or a mis-provisioned worker fails the stream without
	// leaving a source running.
	fleet, err := placeStage(pl, "extract", addrs, remote.KernelHybridExtract, extW, opts.ExtractPolicy)
	if err != nil {
		return fail(err)
	}
	renderFleet, err := placeStage(pl, "render", opts.RenderAddrs, remote.KernelRenderPartial, renderW, opts.RenderPolicy)
	if err != nil {
		return fail(err)
	}

	// Source: number the frames as they arrive. The source's context
	// carries the stream's ensemble list, for the sources that know to
	// look (lendEnsemble).
	st := newStreamStorage()
	frames := pipeline.Source(pl, buf, func(ctx context.Context, emit func(StreamResult) bool) error {
		ctx = context.WithValue(ctx, ensembleListKey{}, &st.ens)
		i := 0
		return src(ctx, func(f beam.Frame) bool {
			r := StreamResult{Index: i, Frame: f}
			i++
			return emit(r)
		})
	})

	var out <-chan StreamResult
	if fleet != nil {
		// Distributed placement: partition+extract fuse into one stage
		// that ships each frame's projected point set (CRC-framed,
		// configs included) to the fleet and gets the hybrid
		// representation back, bit-identical to the local stage pair.
		// ExtractWorkers bounds the concurrent kernel runs (and memory)
		// on each worker — it is the fleet's per-member window — so the
		// stage runs ExtractWorkers × members goroutines to keep every
		// member's window fillable. A lost attempt is re-dispatched by
		// the fleet beneath the stage's reorderer, so failover never
		// disturbs frame order or content. Projections recycle through
		// proj and the wire payloads through the remote package's free
		// lists, so a steady distributed stream allocates like the
		// local one.
		proj := pipeline.NewFreeList(func() []vec.V3 { return nil })
		out = pipeline.Map(pl, frames,
			pipeline.StageConfig{Name: "extract@" + strings.Join(addrs, ","), Workers: extW * len(addrs), Buf: buf},
			func(ctx context.Context, r StreamResult) (StreamResult, error) {
				pts := pipeline.GetSlice(proj, r.Frame.E.Len())
				p.project(r.Frame.E, pts)
				rep, err := fleet.ComputeExtract(ctx, pts, p.Tree, p.Extract)
				pipeline.PutSlice(proj, pts)
				if err != nil {
					return r, err
				}
				r.Rep = rep
				st.release(&r)
				return r, nil
			})
	} else {
		// Partition: build the tree from the ensemble's plotted columns.
		// A tree the consumer will see (SkipExtract) is the consumer's;
		// any other is retired by the extract stage.
		out = pipeline.Map(pl, frames,
			pipeline.StageConfig{Name: "partition", Workers: partW, Buf: buf},
			func(_ context.Context, r StreamResult) (StreamResult, error) {
				var err error
				r.Tree, err = st.partition(p, &r, !opts.SkipExtract)
				return r, err
			})
		if !opts.SkipExtract {
			out = pipeline.Map(pl, out,
				pipeline.StageConfig{Name: "extract", Workers: extW, Buf: buf},
				func(_ context.Context, r StreamResult) (StreamResult, error) {
					rep, err := hybrid.Extract(r.Tree, p.Extract)
					if err != nil {
						return r, err
					}
					r.Rep = rep
					st.trees.Put(r.Tree)
					r.Tree = nil
					return r, nil
				})
		}
	}

	if opts.Sink != nil {
		// Single worker: publishes land in frame order, which live
		// stores (remote.LiveRing) require.
		out = pipeline.Map(pl, out,
			pipeline.StageConfig{Name: "publish", Workers: 1, Buf: buf},
			func(_ context.Context, r StreamResult) (StreamResult, error) {
				return r, opts.Sink.Publish(r.Index, r.Rep)
			})
	}

	s := &ParticleStream{}
	if opts.Render != nil {
		ro := opts.Render.withDefaults()
		s.fbs = pipeline.NewFreeList(func() *render.Framebuffer {
			fb, err := render.NewFramebuffer(ro.Width, ro.Height)
			if err != nil {
				panic(err) // dims validated by withDefaults
			}
			return fb
		})
		// The point pass is the only part of a frame's render that
		// depends on placement. On a render fleet (sort-last) it splits
		// into parts sub-volumes fanned across the fleet and composited
		// back in partition order; Workers frames overlap their
		// fan-outs, and within a frame the fleet's striping and windows
		// bound the per-member load. The volume is fixed-resolution (it
		// does not scale with the data), so its ray cast always runs
		// here, over the frame's own or the composited point image.
		name, parts := "render", 0
		if renderFleet != nil {
			name += "@" + strings.Join(opts.RenderAddrs, ",")
			if parts = ro.Partitions; parts < 1 {
				parts = len(opts.RenderAddrs)
			}
		}
		aspect := float64(ro.Width) / float64(ro.Height)
		out = pipeline.Map(pl, out,
			pipeline.StageConfig{Name: name, Workers: renderW, Buf: buf},
			func(ctx context.Context, r StreamResult) (StreamResult, error) {
				tf, err := DefaultTF(r.Rep)
				if err != nil {
					return r, err
				}
				cam, err := render.LookAtBounds(r.Rep.Bounds, ro.ViewDir, math.Pi/3, aspect)
				if err != nil {
					return r, err
				}
				fb := s.fbs.Get()
				fb.Clear(hybrid.RGBA{})
				if renderFleet != nil {
					err = renderDistributed(ctx, renderFleet, r.Rep, ro, parts, fb)
				} else {
					r.Rast = volren.RenderPointPass(r.Rep, tf, fb, cam, ro.PointScale, ro.Opaque, volren.PointPassOptions{})
				}
				if err == nil {
					r.VR, err = volren.New(r.Rep.Volume, tf)
				}
				if err != nil {
					s.fbs.Put(fb)
					return r, err
				}
				r.VR.Render(fb, cam)
				r.FB = fb
				return r, nil
			})
	}
	s.Stream = pipeline.NewStream(pl, out)
	return s
}

// workersOr1 resolves the core façade's documented worker default: a
// zero or negative stage worker count means one worker.
func workersOr1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// project fills dst with the ensemble's points projected onto the
// pipeline's axes, for the fleet extract stage, which ships them; the
// local stages build from the columns. len(dst) must equal e.Len().
func (p *ParticlePipeline) project(e *beam.Ensemble, dst []vec.V3) {
	for i := range dst {
		dst[i] = e.Point3(i, p.Axes)
	}
}

// FieldRenderOptions appends a render stage to a field stream.
type FieldRenderOptions struct {
	Technique     sos.Technique
	Width, Height int    // framebuffer size (default 512x512)
	ViewDir       vec.V3 // view direction (default {0.8, 0.45, 0.9})
	Workers       int    // concurrent frames in the render stage
}

func (o FieldRenderOptions) withDefaults() FieldRenderOptions {
	if o.Width <= 0 {
		o.Width = 512
	}
	if o.Height <= 0 {
		o.Height = 512
	}
	if o.ViewDir == (vec.V3{}) {
		o.ViewDir = vec.New(0.8, 0.45, 0.9)
	}
	return o
}

// FieldStreamOptions sizes the stages of a field-solve stream.
type FieldStreamOptions struct {
	Frames          int     // number of snapshots to emit
	PeriodsPerFrame float64 // drive periods advanced between snapshots
	TraceWorkers    int     // concurrent frames in the trace stage (0 = 1)
	TraceB          bool    // trace magnetic lines alongside electric
	Buffer          int     // inter-stage channel depth in frames (0 = 1)

	Render *FieldRenderOptions // non-nil appends a render stage
}

// FieldStreamResult is the per-frame output of StreamSolve.
type FieldStreamResult struct {
	Index int
	Frame *emsim.FieldFrame
	E     *seeding.Result // electric field lines
	B     *seeding.Result // magnetic field lines (nil unless TraceB)
	FB    *render.Framebuffer
	Stats sos.Stats
}

// StreamSolve runs the §3 chain — FDTD solve → field-line seeding →
// (optionally) SOS rendering — as a staged stream: the solver advances
// frame N+1 on the source goroutine while frame N's lines integrate
// and frame N-1 renders. The solver itself is stateful and therefore
// serial; the trace and render stages take per-frame workers.
func (p *FieldPipeline) StreamSolve(ctx context.Context, opts FieldStreamOptions) (*pipeline.Stream[FieldStreamResult], error) {
	if opts.Frames <= 0 {
		return nil, fmt.Errorf("core: field stream needs Frames > 0, got %d", opts.Frames)
	}
	if opts.PeriodsPerFrame <= 0 {
		return nil, fmt.Errorf("core: field stream needs PeriodsPerFrame > 0, got %g", opts.PeriodsPerFrame)
	}
	// Build the mesh and solver up front so the concurrent stages only
	// ever read the cached copies.
	sim, err := p.ensureSim()
	if err != nil {
		return nil, err
	}
	buf := opts.Buffer
	if buf < 1 {
		buf = 1
	}

	pl := pipeline.New(ctx)
	frames := pipeline.Source(pl, buf, func(ctx context.Context, emit func(FieldStreamResult) bool) error {
		for i := 0; i < opts.Frames; i++ {
			if ctx.Err() != nil {
				return nil
			}
			sim.AdvancePeriods(opts.PeriodsPerFrame)
			if !emit(FieldStreamResult{Index: i, Frame: sim.Snapshot()}) {
				return nil
			}
		}
		return nil
	})

	lines := pipeline.Map(pl, frames,
		pipeline.StageConfig{Name: "trace", Workers: workersOr1(opts.TraceWorkers), Buf: buf},
		func(_ context.Context, r FieldStreamResult) (FieldStreamResult, error) {
			var err error
			if r.E, err = p.TraceE(r.Frame); err == nil && opts.TraceB {
				r.B, err = p.TraceB(r.Frame)
			}
			return r, err
		})

	out := lines
	if opts.Render != nil {
		ro := opts.Render.withDefaults()
		out = pipeline.Map(pl, out,
			pipeline.StageConfig{Name: "render", Workers: workersOr1(ro.Workers), Buf: buf},
			func(_ context.Context, r FieldStreamResult) (FieldStreamResult, error) {
				var err error
				r.FB, r.Stats, err = p.RenderLines(r.E.Lines, ro.Technique, ro.Width, ro.Height, ro.ViewDir)
				return r, err
			})
	}
	return pipeline.NewStream(pl, out), nil
}
