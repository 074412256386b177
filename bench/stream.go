package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/beam"
	"repro/internal/compositor"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/octree"
	"repro/internal/pario"
	"repro/internal/pipeline"
	"repro/internal/remote"
	"repro/internal/render"
	"repro/internal/sortx"
	"repro/internal/vec"
	"repro/internal/volren"
)

// beamWorkload is beam_stream and, with fleet set, fleet_stream: the
// §2 chain streamed from frame files through
// ParticlePipeline.StreamFrames. Files, not a live simulation, because
// beam.Sim costs several frames' worth of visualization per period and
// would hide the chain being measured. fleet_stream runs the same
// inputs and options with extraction and the point pass placed on two
// in-process workers, so the difference between the two is the
// distribution overhead.
type beamWorkload struct {
	sz    sizes
	seed  int64
	dir   string
	fleet bool

	pipe      *core.ParticlePipeline
	view      core.RenderOptions
	paths     []string
	fileBytes int64
	workers   []*remote.Worker
	addrs     []string
	wire      *wireCount // the streamed sessions' sockets
}

func (w *beamWorkload) setup() error {
	p := core.NewParticlePipeline(w.sz.beamN) // level-8 octree, point budget n/10
	p.Sim.Seed = w.seed
	p.Axes = [3]beam.Axis{beam.AxisX, beam.AxisPX, beam.AxisY} // the phase plot of Fig 1
	p.Extract.VolumeRes = w.sz.beamVolume
	w.pipe = p
	w.view = core.RenderOptions{
		Width: w.sz.beamImage, Height: w.sz.beamImage,
		ViewDir: vec.New(0.4, 0.3, 1), PointScale: 1.5,
		Workers: 1, Partitions: w.sz.fleetParts,
	}
	sim, err := p.NewSim()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	for k := 0; k < w.sz.beamFiles; k++ {
		sim.RunPeriods(1)
		path := filepath.Join(w.dir, fmt.Sprintf("beam_%04d.acpf", k))
		if err := pario.WriteFrameFile(path, sim.Snapshot()); err != nil {
			return err
		}
		w.paths = append(w.paths, path)
	}
	w.fileBytes = pario.FrameBytes(int64(w.sz.beamN))
	if w.fleet {
		for k := 0; k < 2; k++ {
			wk, err := remote.NewWorker("127.0.0.1:0")
			if err != nil {
				return err
			}
			w.workers = append(w.workers, wk)
			w.addrs = append(w.addrs, wk.Addr())
		}
	}
	return nil
}

func (w *beamWorkload) close() {
	for _, wk := range w.workers {
		wk.Close()
	}
	os.RemoveAll(w.dir)
}

func (w *beamWorkload) describe() map[string]any {
	d := map[string]any{
		"particles": w.sz.beamN, "files": w.sz.beamFiles, "frames_per_session": w.sz.beamSession,
		"image": w.sz.beamImage, "volume": w.sz.beamVolume, "budget": w.pipe.Extract.Budget,
		"stage_workers": 1, "buffer": 2,
	}
	if w.fleet {
		d["workers"] = len(w.workers)
		d["render_partitions"] = w.sz.fleetParts
	}
	return d
}

// input is the file a session's frame j reads.
func (w *beamWorkload) input(j int) int { return j % len(w.paths) }

func (w *beamWorkload) options() core.StreamOptions {
	view := w.view
	o := core.StreamOptions{PartitionWorkers: 1, ExtractWorkers: 1, Buffer: 2, Render: &view}
	if w.fleet {
		policy := &remote.FleetOptions{Dial: w.wire.dial}
		o.ExtractAddrs, o.ExtractPolicy = w.addrs, policy
		o.RenderAddrs, o.RenderPolicy = w.addrs, policy
	}
	return o
}

// session streams beamSession frames. Latency runs from the source's
// emit call (which blocks while the chain is full, so queueing counts)
// to receipt on Out.
func (w *beamWorkload) session(_ int, rec *recorder, _ *tracer) {
	n := w.sz.beamSession
	paths := make([]string, n)
	for j := range paths {
		paths[j] = w.paths[w.input(j)]
	}
	stamps := make([]time.Time, n)
	files := core.FrameFileSource(paths...)
	src := func(ctx context.Context, emit func(beam.Frame) bool) error {
		j := 0
		return files(ctx, func(f beam.Frame) bool {
			stamps[j] = time.Now()
			j++
			return emit(f)
		})
	}
	start := time.Now()
	s := w.pipe.StreamFrames(context.Background(), src, w.options())
	got := 0
	for r := range s.Out {
		now := time.Now()
		if r.Index == 0 {
			rec.firstFrame(now.Sub(start))
		}
		rec.frame(now.Sub(stamps[r.Index]))
		rec.picture(w.input(r.Index), fbCRC(r.FB))
		s.RecycleFB(r.FB)
		got++
	}
	if err := s.Wait(); err != nil {
		rec.lost(n-got, "stream: %v", err)
	}
}

// replayFleets are the replay's own connections to the workers; their
// bytes count into wire so that a request's size can be read off
// around the call.
type replayFleets struct {
	extract, render *remote.Fleet
	wire            wireCount
}

func (w *beamWorkload) dialReplay() (*replayFleets, error) {
	if !w.fleet {
		return nil, nil
	}
	fl := &replayFleets{}
	var err error
	fl.extract, err = remote.NewFleet(w.addrs, remote.FleetOptions{Kernel: remote.KernelHybridExtract, Window: 1, Dial: fl.wire.dial})
	if err != nil {
		return nil, err
	}
	fl.render, err = remote.NewFleet(w.addrs, remote.FleetOptions{Kernel: remote.KernelRenderPartial, Window: 1, Dial: fl.wire.dial})
	if err != nil {
		fl.extract.Close()
		return nil, err
	}
	return fl, nil
}

func (fl *replayFleets) close() {
	if fl != nil {
		fl.extract.Close()
		fl.render.Close()
	}
}

// replayed is what one serially replayed frame leaves behind for the
// checks, the counts and the probes.
type replayed struct {
	frame    beam.Frame
	points   []vec.V3
	rep      *hybrid.Representation
	fb       *render.Framebuffer
	partials []*render.PartialFrame
	tf       *hybrid.LinkedTF
	cam      render.Camera

	nodes              int
	fragments, samples int64
	reqBytes, repBytes int64 // the extract request and reply on the wire
}

// replayFrame drives the chain of the streamed session for one frame,
// one call at a time with the stream's configs, a span around each
// call. With fleets the extraction and the point pass go through
// Fleet.ComputeExtract and one Fleet.ComputeRender per partition, as
// the streamed stages do, and the partials are depth-composited
// before the local ray cast.
func (w *beamWorkload) replayFrame(tr *tracer, j int, fl *replayFleets) (*replayed, error) {
	ctx := context.Background()
	root := tr.root("bench.frame", j, 0)
	defer tr.end(root)
	r := &replayed{}
	var err error

	sp := tr.begin("pario.read", root)
	r.frame, err = pario.ReadFrameFile(w.paths[w.input(j)])
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.begin("beam.project", root)
	r.points = make([]vec.V3, r.frame.E.Len())
	for i := range r.points {
		r.points[i] = r.frame.E.Point3(i, w.pipe.Axes)
	}
	tr.end(sp)

	if fl == nil {
		sp = tr.begin("octree.build", root)
		tree, err := octree.Build(r.points, w.pipe.Tree)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		r.nodes = len(tree.Nodes)
		sp = tr.begin("hybrid.extract", root)
		r.rep, err = hybrid.Extract(tree, w.pipe.Extract)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	} else {
		read, written := fl.wire.read.Load(), fl.wire.written.Load()
		sp = tr.begin("remote.compute_extract", root)
		r.rep, err = fl.extract.ComputeExtract(ctx, r.points, w.pipe.Tree, w.pipe.Extract)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		r.reqBytes, r.repBytes = fl.wire.written.Load()-written, fl.wire.read.Load()-read
	}

	v := w.view
	if r.tf, err = hybrid.DefaultTF(r.rep); err != nil {
		return nil, err
	}
	if r.cam, err = render.LookAtBounds(r.rep.Bounds, v.ViewDir, math.Pi/3, float64(v.Width)/float64(v.Height)); err != nil {
		return nil, err
	}
	if r.fb, err = render.NewFramebuffer(v.Width, v.Height); err != nil {
		return nil, err
	}
	if fl == nil {
		sp = tr.begin("render.points", root)
		rast := volren.RenderPointPass(r.rep, r.tf, r.fb, r.cam, v.PointScale, v.Opaque, volren.PointPassOptions{})
		tr.end(sp)
		r.fragments = rast.FragmentCount
	} else {
		// Even cuts, where the stream snaps its cuts to octree cells:
		// the composited picture is the same at every cut, which the
		// CRC check below confirms on every frame.
		n := len(r.rep.Points)
		for k := 0; k < v.Partitions; k++ {
			lo, hi := k*n/v.Partitions, (k+1)*n/v.Partitions
			sp = tr.begin("remote.compute_render", root)
			pf, err := fl.render.ComputeRender(ctx, &remote.RenderPartialRequest{
				Width: v.Width, Height: v.Height, Seq: k, Offset: lo,
				ViewDir: v.ViewDir, PointScale: v.PointScale, Opaque: v.Opaque,
				Bounds: r.rep.Bounds, Threshold: r.rep.Threshold, MaxLeafD: r.rep.MaxLeafD,
				Points: r.rep.Points[lo:hi], Density: r.rep.PointDensity[lo:hi],
			})
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			r.partials = append(r.partials, pf)
		}
		sp = tr.begin("compositor.depth", root)
		err = compositor.CompositeDepth(r.fb, r.partials, 0)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}

	sp = tr.begin("volren.raycast", root)
	vr, err := volren.New(r.rep.Volume, r.tf)
	if err == nil {
		vr.Render(r.fb, r.cam)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	r.samples = vr.SampleCount
	return r, nil
}

// finish replays each distinct input once, serially, and holds every
// streamed picture to the replay's CRC. fleet_stream's replay is itself
// held to a local volren.RenderHybrid on every tenth frame.
func (w *beamWorkload) finish(rec *recorder) error {
	fl, err := w.dialReplay()
	if err != nil {
		return err
	}
	defer fl.close()
	refs := make([]uint32, len(w.paths))
	var bytes float64
	for j := range w.paths {
		r, err := w.replayFrame(nil, j, fl)
		if err != nil {
			return err
		}
		refs[j] = fbCRC(r.fb)
		bytes += float64(len(r.rep.AppendBinary(nil)))
		if err := w.checkLocal(j, r); err != nil {
			rec.rejected(rec.frames, "%v", err) // the reference itself is wrong: no frame stands
			return nil
		}
	}
	rec.checkPictures(refs)
	rec.localBytes = bytes / float64(len(w.paths))
	return nil
}

// checkLocal holds every tenth fleet replay to the single-node render.
func (w *beamWorkload) checkLocal(j int, r *replayed) error {
	if !w.fleet || j%10 != 0 {
		return nil
	}
	fb, err := render.NewFramebuffer(w.view.Width, w.view.Height)
	if err != nil {
		return err
	}
	if _, _, err := volren.RenderHybrid(r.rep, r.tf, fb, r.cam, w.view.PointScale, w.view.Opaque); err != nil {
		return err
	}
	if got, want := fbCRC(r.fb), fbCRC(fb); got != want {
		return fmt.Errorf("frame %d: fleet replay %08x, local RenderHybrid %08x", j, got, want)
	}
	return nil
}

// traced is the serial replay of one session with spans and probes.
func (w *beamWorkload) traced(_ int, tr *tracer, ref *recorder, m metrics) error {
	fl, err := w.dialReplay()
	if err != nil {
		return err
	}
	defer fl.close()

	n := w.sz.beamSession
	refs := make([]uint32, len(w.paths))
	var nodes, pointsOut, repBytes, fragments, samples, reqB, repB, partialB float64
	for j := 0; j < n; j++ {
		r, err := w.replayFrame(tr, j, fl)
		if err != nil {
			return err
		}
		refs[w.input(j)] = fbCRC(r.fb)
		if err := w.checkLocal(j, r); err != nil {
			ref.rejected(ref.frames, "%v", err)
			return nil
		}
		nodes += float64(r.nodes)
		pointsOut += float64(len(r.rep.Points))
		fragments += float64(r.fragments)
		samples += float64(r.samples)
		reqB += float64(r.reqBytes)
		repB += float64(r.repBytes)

		// Probes: nested layers timed on this frame's real data, off
		// the frame's blocking path.
		if fl == nil {
			keys := make([]sortx.KV, len(r.frame.E.X))
			for i, x := range r.frame.E.X {
				keys[i] = sortx.KV{K: sortx.Float64Key(x), V: int64(i)}
			}
			sp := tr.probe("sortx.pairs", j)
			sortx.Pairs(keys, 0)
			tr.end(sp)
			repBytes += float64(len(r.rep.AppendBinary(nil)))
		} else {
			sp := tr.probe("octree.build", j)
			tree, err := octree.Build(r.points, w.pipe.Tree)
			tr.end(sp)
			if err != nil {
				return err
			}
			sp = tr.probe("hybrid.extract", j)
			_, err = hybrid.Extract(tree, w.pipe.Extract)
			tr.end(sp)
			if err != nil {
				return err
			}
			for _, pf := range r.partials {
				blob := render.CompressPartial(pf.FB, pf.Seq)
				partialB += float64(len(blob))
				sp = tr.probe("render.partial_decode", j)
				_, err = render.DecompressPartial(blob)
				tr.end(sp)
				if err != nil {
					return err
				}
			}
		}
	}
	ref.checkPictures(refs)

	f := float64(n)
	m["pario.read_ms"] = tr.frameMs("pario.read")
	m["pario.read_mb_per_s"] = perSecond(float64(w.fileBytes)/1e6, tr.frameMs("pario.read"))
	m["beam.project_ms"] = tr.frameMs("beam.project")
	m["volren.raycast_ms"] = tr.frameMs("volren.raycast")
	m["volren.samples"] = samples / f
	m["volren.samples_per_s"] = perSecond(samples, tr.totalMs("volren.raycast"))
	m["octree.build_ms"] = tr.frameMs("octree.build")
	m["hybrid.extract_ms"] = tr.frameMs("hybrid.extract")
	m["pipeline.overlap_ratio"] = overlapRatio(tr, n, ref)
	if fl == nil {
		m["octree.points_per_s"] = perSecond(f*float64(w.sz.beamN), tr.totalMs("octree.build"))
		m["octree.nodes"] = nodes / f
		m["sortx.pairs_ms"] = tr.frameMs("sortx.pairs")
		m["sortx.keys_per_s"] = perSecond(f*float64(w.sz.beamN), tr.totalMs("sortx.pairs"))
		m["hybrid.points_out"] = pointsOut / f
		m["hybrid.rep_bytes"] = repBytes / f
		m["render.points_ms"] = tr.frameMs("render.points")
		m["render.fragments"] = fragments / f
		m["render.frag_per_s"] = perSecond(fragments, tr.totalMs("render.points"))
		m["pipeline.handoff_ns"], err = handoffNs(tr)
		return err
	}
	m["remote.compute_extract_ms"] = tr.frameMs("remote.compute_extract")
	m["remote.extract_req_bytes"] = reqB / f
	m["remote.extract_rep_bytes"] = repB / f
	m["remote.extract_overhead_ms"] = m["remote.compute_extract_ms"] - m["octree.build_ms"] - m["hybrid.extract_ms"]
	m["remote.compute_render_ms"] = tr.frameMs("remote.compute_render")
	m["render.partial_decode_ms"] = tr.frameMs("render.partial_decode")
	m["render.partial_bytes"] = partialB / f
	m["compositor.depth_ms"] = tr.frameMs("compositor.depth")
	var attempts, failures float64
	for _, fleet := range []*remote.Fleet{fl.extract, fl.render} {
		for _, ws := range fleet.Stats() {
			attempts += float64(ws.Dispatched)
			failures += float64(ws.Failures)
		}
	}
	m["remote.fleet.attempts"] = attempts
	m["remote.fleet.retries"] = failures
	return nil
}

// overlapRatio is the serial replay's seconds per frame over the
// streamed reference session's: what running the stages as a pipeline
// buys. It is about 1 on two cores, where the streamed frame time
// tracks the sum of the stages' CPU.
func overlapRatio(tr *tracer, frames int, ref *recorder) float64 {
	if ref.frames == 0 || ref.wall == 0 {
		return 0
	}
	replay := tr.wall().Seconds() / float64(frames)
	streamed := ref.wall.Seconds() / float64(ref.frames)
	return replay / streamed
}

// handoffNs times three no-op pipeline.Map stages over 10 000 items and
// returns the cost of one item crossing one stage.
func handoffNs(tr *tracer) (float64, error) {
	const items, stages = 10_000, 3
	sp := tr.probe("pipeline.handoff", 0)
	pl := pipeline.New(context.Background())
	ch := pipeline.Source(pl, 1, func(_ context.Context, emit func(int) bool) error {
		for i := 0; i < items && emit(i); i++ {
		}
		return nil
	})
	for s := 0; s < stages; s++ {
		ch = pipeline.Map(pl, ch, pipeline.StageConfig{Name: fmt.Sprintf("noop%d", s), Workers: 1},
			func(_ context.Context, v int) (int, error) { return v, nil })
	}
	pipeline.Sink(pl, ch, "drain", func(context.Context, int) error { return nil })
	err := pl.Wait()
	tr.end(sp)
	return tr.totalMs("pipeline.handoff") * 1e6 / (items * stages), err
}
