package main

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/emsim"
	"repro/internal/fieldline"
	"repro/internal/lineio"
	"repro/internal/seeding"
	"repro/internal/sos"
	"repro/internal/vec"
)

// fieldWorkload is field_stream: the §3 chain (FDTD solve → field-line
// seeding → SOS render) through FieldPipeline.StreamSolve. It uses the
// rasterizer through triangle strips where beam_stream uses splats, so
// a splat win that costs triangles shows here.
type fieldWorkload struct {
	sz   sizes
	seed int64

	// base holds the cavity mesh, built in setup. Each session copies it
	// (the mesh is read-only) so that every session solves from t=0 and
	// sees the same frames; the solver is built inside the session.
	base *core.FieldPipeline
	opts core.FieldStreamOptions
}

func (w *fieldWorkload) setup() error {
	p := core.NewFieldPipeline(w.sz.fieldCells, w.sz.fieldLines)
	p.Seeding.Seed = uint64(w.seed)
	if _, err := p.Mesh(); err != nil {
		return err
	}
	w.base = p
	w.opts = core.FieldStreamOptions{
		Frames: w.sz.fieldSession, PeriodsPerFrame: 0.25, TraceWorkers: 1, Buffer: 2,
		Render: &core.FieldRenderOptions{
			Technique: sos.TechSOS, Width: w.sz.fieldImage, Height: w.sz.fieldImage,
			ViewDir: vec.New(0.8, 0.45, 0.9), Workers: 1,
		},
	}
	return nil
}

func (w *fieldWorkload) close() {}

func (w *fieldWorkload) describe() map[string]any {
	return map[string]any{
		"cells_per_radius": w.sz.fieldCells, "lines": w.sz.fieldLines, "frames_per_session": w.sz.fieldSession,
		"image": w.sz.fieldImage, "periods_per_frame": w.opts.PeriodsPerFrame, "technique": "sos",
		"stage_workers": 1, "buffer": 2,
	}
}

// session streams fieldSession frames from a fresh solver. StreamSolve
// owns its source, so the moment a frame leaves the solver cannot be
// seen from outside the program; until the telemetry spine exposes it
// (ROADMAP item 2) the latency sample here is the interval between
// consecutive pictures on Out, the pace a viewer of the stream sees.
func (w *fieldWorkload) session(_ int, rec *recorder, _ *tracer) {
	p := *w.base
	n := w.opts.Frames
	start := time.Now()
	s, err := p.StreamSolve(context.Background(), w.opts)
	if err != nil {
		rec.lost(n, "stream: %v", err)
		return
	}
	got := 0
	last := start
	for r := range s.Out {
		now := time.Now()
		if r.Index == 0 {
			rec.firstFrame(now.Sub(start))
		}
		rec.frame(now.Sub(last))
		last = now
		rec.picture(r.Index, fbCRC(r.FB))
		got++
	}
	if err := s.Wait(); err != nil {
		rec.lost(n-got, "stream: %v", err)
	}
}

// fieldFrame is what one replayed frame hands to the counts and probes.
type fieldFrame struct {
	j     int
	pipe  *core.FieldPipeline
	field *emsim.FieldFrame
	res   *seeding.Result
	stats sos.Stats
}

// replay solves, traces and renders the session's frames one at a
// time, a span around each call, and returns the pictures' CRCs.
func (w *fieldWorkload) replay(tr *tracer, visit func(fieldFrame) error) ([]uint32, error) {
	p := *w.base
	if _, err := p.Solve(0); err != nil { // builds the solver, as StreamSolve does before its first frame
		return nil, err
	}
	sim := p.Sim()
	ro := w.opts.Render
	refs := make([]uint32, w.opts.Frames)
	for j := range refs {
		root := tr.root("bench.frame", j, 0)
		sp := tr.begin("emsim.advance", root)
		sim.AdvancePeriods(w.opts.PeriodsPerFrame)
		frame := sim.Snapshot()
		tr.end(sp)

		sp = tr.begin("seeding.seed", root)
		res, err := p.TraceE(frame)
		tr.end(sp)
		if err != nil {
			tr.end(root)
			return nil, err
		}

		sp = tr.begin("sos.render", root)
		fb, st, err := p.RenderLines(res.Lines, ro.Technique, ro.Width, ro.Height, ro.ViewDir)
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		refs[j] = fbCRC(fb)
		if err := visit(fieldFrame{j, &p, frame, res, st}); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

func (w *fieldWorkload) finish(rec *recorder) error {
	var bytes float64
	refs, err := w.replay(nil, func(f fieldFrame) error {
		bytes += float64(lineio.LinesBytes(f.res.Lines))
		return nil
	})
	if err != nil {
		return err
	}
	rec.checkPictures(refs)
	rec.localBytes = bytes / float64(len(refs))
	return nil
}

func (w *fieldWorkload) traced(_ int, tr *tracer, ref *recorder, m metrics) error {
	var lines, points, probePoints, triangles, fragments, steps float64
	refs, err := w.replay(tr, func(f fieldFrame) error {
		lines += float64(len(f.res.Lines))
		for _, l := range f.res.Lines {
			points += float64(l.NumPoints())
		}
		triangles += float64(f.stats.Triangles)
		fragments += float64(f.stats.Fragments)
		steps = float64(f.pipe.Sim().Step()) // cumulative

		// Probe: the integrator alone, over one seed per traced line,
		// without the seeding strategy's sequential bookkeeping.
		mesh, err := f.pipe.Mesh()
		if err != nil {
			return err
		}
		seeds := make([]vec.V3, len(f.res.SeedElement))
		for i, e := range f.res.SeedElement {
			seeds[i] = mesh.Elements[e].Center
		}
		cfg := f.pipe.Seeding.Trace
		cfg.Step = mesh.MinSpacing() / 2
		cfg.MinMag = f.field.MaxE() * 1e-4
		cfg.Domain = mesh.Inside
		sp := tr.probe("fieldline.trace", f.j)
		traced, err := fieldline.TraceBothAll(fieldline.FieldFunc(f.field.SampleE), seeds, cfg, 0)
		tr.end(sp)
		for _, l := range traced {
			probePoints += float64(l.NumPoints())
		}
		return err
	})
	if err != nil {
		return err
	}
	ref.checkPictures(refs)

	mesh, err := w.base.Mesh()
	if err != nil {
		return err
	}
	f := float64(len(refs))
	m["emsim.advance_ms"] = tr.frameMs("emsim.advance")
	m["emsim.cell_steps_per_s"] = perSecond(steps*float64(mesh.Nx*mesh.Ny*mesh.Nz), tr.totalMs("emsim.advance"))
	m["seeding.seed_ms"] = tr.frameMs("seeding.seed")
	m["seeding.lines"] = lines / f
	m["fieldline.points"] = points / f
	m["fieldline.trace_ms"] = tr.frameMs("fieldline.trace")
	m["fieldline.points_per_s"] = perSecond(probePoints, tr.totalMs("fieldline.trace"))
	m["sos.render_ms"] = tr.frameMs("sos.render")
	m["render.triangles"] = triangles / f
	m["render.tri_fragments"] = fragments / f
	m["pipeline.overlap_ratio"] = overlapRatio(tr, len(refs), ref)
	return nil
}
