// Package repro's root benchmark harness: one benchmark per figure and
// per quantitative claim of the paper. These are go-test benchmarks for
// work on one figure at a time; the repo's benchmark of record, with
// its workloads, metrics and committed baseline, is bench/ (see
// bench/README.md).
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks share lazily-built fixtures (one beam frame, one solved
// cavity) so the suite measures the operations of interest, not
// repeated setup.
package repro

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/beam"
	"repro/internal/core"
	"repro/internal/emsim"
	"repro/internal/hexmesh"
	"repro/internal/hybrid"
	"repro/internal/octree"
	"repro/internal/pario"
	"repro/internal/render"
	"repro/internal/seeding"
	"repro/internal/sos"
	"repro/internal/vec"
	"repro/internal/volren"
)

// Benchmark scale: small enough for CI, big enough that the paper's
// asymmetries (hybrid vs full-res volume, strip vs tube) are visible.
const (
	benchParticles = 200_000
	benchImage     = 128
	benchVolFull   = 96 // "256^3" stand-in
	benchVolHyb    = 24 // "64^3" stand-in
	benchCavityRes = 8
	benchLines     = 100
)

// ---- shared fixtures -------------------------------------------------

var (
	beamOnce  sync.Once
	beamFrame beam.Frame

	treeOnce  sync.Once
	phaseTree *octree.Tree

	cavityOnce  sync.Once
	cavityPipe  *core.FieldPipeline
	cavityFrame *emsim.FieldFrame
	cavityLines *seeding.Result
)

func getBeamFrame(b *testing.B) beam.Frame {
	b.Helper()
	beamOnce.Do(func() {
		sim, err := beam.NewSim(beam.DefaultConfig(benchParticles))
		if err != nil {
			panic(err)
		}
		sim.RunPeriods(15)
		beamFrame = sim.Snapshot()
	})
	return beamFrame
}

func getPhaseTree(b *testing.B) *octree.Tree {
	b.Helper()
	treeOnce.Do(func() {
		f := getBeamFrame(b)
		pts := make([]vec.V3, f.E.Len())
		for i := range pts {
			pts[i] = f.E.Point3(i, [3]beam.Axis{beam.AxisX, beam.AxisPX, beam.AxisY})
		}
		t, err := octree.Build(pts, octree.DefaultConfig())
		if err != nil {
			panic(err)
		}
		phaseTree = t
	})
	return phaseTree
}

func getCavity(b *testing.B) (*core.FieldPipeline, *emsim.FieldFrame, *seeding.Result) {
	b.Helper()
	cavityOnce.Do(func() {
		fp := core.NewFieldPipeline(benchCavityRes, benchLines)
		frame, err := fp.Solve(6)
		if err != nil {
			panic(err)
		}
		res, err := fp.TraceE(frame)
		if err != nil {
			panic(err)
		}
		cavityPipe, cavityFrame, cavityLines = fp, frame, res
	})
	return cavityPipe, cavityFrame, cavityLines
}

func extractAt(b *testing.B, res int, budget int64) (*hybrid.Representation, *hybrid.LinkedTF) {
	b.Helper()
	tree := getPhaseTree(b)
	rep, err := hybrid.Extract(tree, hybrid.ExtractConfig{VolumeRes: res, Budget: budget})
	if err != nil {
		b.Fatal(err)
	}
	tf, err := core.DefaultTF(rep)
	if err != nil {
		b.Fatal(err)
	}
	return rep, tf
}

// ---- Fig 1: full-res volume vs hybrid --------------------------------

// BenchmarkFig1VolumeRendering ray-casts the "full resolution" density
// volume — the brute-force baseline of Fig 1 (left).
func BenchmarkFig1VolumeRendering(b *testing.B) {
	rep, tf := extractAt(b, benchVolFull, 1)
	cam, err := render.LookAtBounds(rep.Bounds, vec.New(0.2, 0.25, 1), math.Pi/3, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb, _ := render.NewFramebuffer(benchImage, benchImage)
		vr, err := volren.New(rep.Volume, tf)
		if err != nil {
			b.Fatal(err)
		}
		vr.Render(fb, cam)
	}
}

// BenchmarkFig1HybridRendering renders the hybrid representation —
// low-res volume plus halo points — of Fig 1 (right). The paper's
// claim is that this runs at "much higher frame rates" than the
// full-resolution volume; compare ns/op with BenchmarkFig1VolumeRendering.
// The frag/s metric tracks the point-pass throughput of the tile
// rasterizer (fragments counted after screen culling).
func BenchmarkFig1HybridRendering(b *testing.B) {
	rep, tf := extractAt(b, benchVolHyb, benchParticles/25)
	cam, err := render.LookAtBounds(rep.Bounds, vec.New(0.2, 0.25, 1), math.Pi/3, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var frags int64
	for i := 0; i < b.N; i++ {
		fb, _ := render.NewFramebuffer(benchImage, benchImage)
		rast, _, err := volren.RenderHybrid(rep, tf, fb, cam, 1.2, false)
		if err != nil {
			b.Fatal(err)
		}
		frags += rast.FragmentCount
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(frags)/sec, "frag/s")
	}
}

// TestFig1DetailPreservation verifies the qualitative half of Fig 1:
// the hybrid image resolves more fine detail (gradient energy) than
// the volume-only rendering, despite its far lower volume resolution.
func TestFig1DetailPreservation(t *testing.T) {
	b := &testing.B{}
	rep, tf := extractAt(b, benchVolHyb, benchParticles/25)
	full, tfFull := extractAt(b, benchVolFull, 1)
	cam, err := render.LookAtBounds(rep.Bounds, vec.New(0.2, 0.25, 1), math.Pi/3, 1)
	if err != nil {
		t.Fatal(err)
	}
	fbVol, _ := render.NewFramebuffer(benchImage, benchImage)
	vr, err := volren.New(full.Volume, tfFull)
	if err != nil {
		t.Fatal(err)
	}
	vr.Render(fbVol, cam)
	fbHyb, _ := render.NewFramebuffer(benchImage, benchImage)
	if _, _, err := volren.RenderHybrid(rep, tf, fbHyb, cam, 1.2, false); err != nil {
		t.Fatal(err)
	}
	gVol := gradientEnergy(fbVol)
	gHyb := gradientEnergy(fbHyb)
	if gHyb <= gVol {
		t.Errorf("hybrid gradient energy %.5f <= volume %.5f; detail advantage missing", gHyb, gVol)
	}
}

// gradientEnergy is the detail proxy examples/beamhalo prints: the mean
// magnitude of the luminance gradient over the frame.
func gradientEnergy(fb *render.Framebuffer) float64 {
	var sum float64
	n := 0
	for y := 0; y < fb.H-1; y++ {
		for x := 0; x < fb.W-1; x++ {
			l := fb.Luminance(x, y)
			gx := fb.Luminance(x+1, y) - l
			gy := fb.Luminance(x, y+1) - l
			sum += math.Sqrt(gx*gx + gy*gy)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ---- Fig 2: the four phase-space distributions ------------------------

func BenchmarkFig2PhasePlots(b *testing.B) {
	f := getBeamFrame(b)
	plots := [][3]beam.Axis{
		{beam.AxisX, beam.AxisY, beam.AxisZ},
		{beam.AxisX, beam.AxisPX, beam.AxisY},
		{beam.AxisX, beam.AxisPX, beam.AxisZ},
		{beam.AxisPX, beam.AxisPY, beam.AxisPZ},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		axes := plots[i%len(plots)]
		pts := make([]vec.V3, f.E.Len())
		for j := range pts {
			pts[j] = f.E.Point3(j, axes)
		}
		tree, err := octree.Build(pts, octree.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := hybrid.Extract(tree, hybrid.ExtractConfig{VolumeRes: benchVolHyb, Budget: benchParticles / 25}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig 4: hybrid decomposition --------------------------------------

func BenchmarkFig4HybridDecomposition(b *testing.B) {
	rep, tf := extractAt(b, benchVolHyb, benchParticles/20)
	cam, err := render.LookAtBounds(rep.Bounds, vec.New(0.2, 0.3, 1), math.Pi/3, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Volume part, point part, combined — the Fig 4 triptych.
		fbV, _ := render.NewFramebuffer(benchImage, benchImage)
		vr, _ := volren.New(rep.Volume, tf)
		vr.Render(fbV, cam)
		fbP, _ := render.NewFramebuffer(benchImage, benchImage)
		rast := render.NewRasterizer(fbP, cam)
		splats := make([]render.PointSplat, len(rep.Points))
		for j := range rep.Points {
			c := tf.Color.Eval(tf.MapDensity(float64(rep.PointDensity[j])))
			c.A = 1
			splats[j] = render.PointSplat{Pos: rep.Points[j], Radius: 1.2, Color: c}
		}
		rast.DrawPointBatch(splats)
		fbC, _ := render.NewFramebuffer(benchImage, benchImage)
		if _, _, err := volren.RenderHybrid(rep, tf, fbC, cam, 1.2, true); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig 5: time series ------------------------------------------------

// BenchmarkFig5TimeSeries measures the full per-frame pipeline cost of
// the evolution animation: simulate -> partition -> extract.
func BenchmarkFig5TimeSeries(b *testing.B) {
	sim, err := beam.NewSim(beam.DefaultConfig(benchParticles / 8))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunPeriods(1)
		f := sim.Snapshot()
		pts := make([]vec.V3, f.E.Len())
		for j := range pts {
			pts[j] = f.E.Point3(j, [3]beam.Axis{beam.AxisX, beam.AxisY, beam.AxisZ})
		}
		tree, err := octree.Build(pts, octree.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := hybrid.Extract(tree, hybrid.ExtractConfig{VolumeRes: benchVolHyb, Budget: int64(len(pts) / 20)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamingTimeSeries compares the two executions of the
// Fig 5 animation pipeline: the serial loop (each frame runs
// simulate → partition → extract to completion before the next frame
// starts) against the streaming stage engine (frame N+1 simulates
// while frame N partitions and frame N-1 extracts). Per-stage internal
// worker counts are pinned to 1 in BOTH variants so the ratio
// measures orchestration — stage overlap and frame-level workers —
// not intra-stage parallelism; at GOMAXPROCS >= 4 the overlapped
// variant should deliver well over 1.3x the serial frame throughput.
func BenchmarkStreamingTimeSeries(b *testing.B) {
	const n = benchParticles / 8
	newPipeline := func(b *testing.B) (*core.ParticlePipeline, *beam.Sim) {
		pp := core.NewParticlePipeline(n)
		pp.Sim.Workers = 1
		pp.Tree.Workers = 1
		pp.Extract = hybrid.ExtractConfig{VolumeRes: benchVolHyb, Budget: int64(n / 20), Workers: 1}
		sim, err := pp.NewSim()
		if err != nil {
			b.Fatal(err)
		}
		return pp, sim
	}

	b.Run("serial", func(b *testing.B) {
		pp, sim := newPipeline(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.RunPeriods(1)
			tree, err := pp.Partition(sim.Snapshot())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pp.Hybrid(tree); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("overlapped", func(b *testing.B) {
		pp, sim := newPipeline(b)
		b.ResetTimer()
		s := pp.StreamFrames(context.Background(), core.SimSource(sim, b.N, 1), core.StreamOptions{
			PartitionWorkers: 2,
			ExtractWorkers:   2,
			Buffer:           2,
		})
		frames := 0
		for range s.Out {
			frames++
		}
		if err := s.Wait(); err != nil {
			b.Fatal(err)
		}
		if frames != b.N {
			b.Fatalf("stream emitted %d frames, want %d", frames, b.N)
		}
	})
}

func TestFig5FourFoldSymmetry(t *testing.T) {
	sim, err := beam.NewSim(beam.DefaultConfig(20000))
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 4; f++ {
		sim.RunPeriods(5)
		if score := beam.FourFoldSymmetry(sim.Particles); score > 0.1 {
			t.Errorf("frame %d: four-fold symmetry deviation %.3f > 0.1", f, score)
		}
	}
}

// ---- Fig 6: the nine techniques ----------------------------------------

func BenchmarkFig6Techniques(b *testing.B) {
	fp, _, res := getCavity(b)
	for _, tech := range sos.Techniques() {
		b.Run(tech.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, st, err := fp.RenderLines(res.Lines, tech, benchImage, benchImage, vec.New(0.8, 0.45, 0.9))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(st.Triangles), "triangles")
				b.ReportMetric(float64(st.Fragments), "fragments")
			}
		})
	}
}

// ---- Fig 7: incremental loading ----------------------------------------

func BenchmarkFig7IncrementalLoading(b *testing.B) {
	fp, _, res := getCavity(b)
	fractions := []int{8, 4, 2, 1}
	for _, frac := range fractions {
		n := len(res.Lines) / frac
		b.Run(fmt.Sprintf("lines=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := fp.RenderLines(res.Prefix(n), sos.TechSOS, benchImage, benchImage, vec.New(0.8, 0.45, 0.9)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Fig 8: RF propagation ----------------------------------------------

// BenchmarkFig8RFPropagation measures one FDTD drive period plus a
// snapshot — the per-frame cost of the Fig 8 animation.
func BenchmarkFig8RFPropagation(b *testing.B) {
	cav := hexmesh.DefaultCavity(benchCavityRes)
	mesh, err := hexmesh.BuildCavity(cav)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := emsim.New(emsim.DefaultConfig(mesh, cav))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.AdvancePeriods(1)
		_ = sim.Snapshot()
	}
}

// ---- Fig 9: multi-cell structure with asymmetric ports -------------------

func BenchmarkFig9TwelveCell(b *testing.B) {
	// Mesh + a short solve of the (scaled) 12-cell structure.
	for i := 0; i < b.N; i++ {
		cav := hexmesh.TwelveCellCavity(benchCavityRes, 0.4)
		cav.Cells = 6
		cav.OutputPort.Cell = 5
		mesh, err := hexmesh.BuildCavity(cav)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := emsim.New(emsim.DefaultConfig(mesh, cav))
		if err != nil {
			b.Fatal(err)
		}
		sim.AdvancePeriods(2)
		b.ReportMetric(float64(mesh.NumElements()), "elements")
	}
}

func TestFig9PortAsymmetry(t *testing.T) {
	run := func(asym float64) float64 {
		cav := hexmesh.TwelveCellCavity(6, asym)
		cav.Cells = 4
		cav.OutputPort.Cell = 3
		mesh, err := hexmesh.BuildCavity(cav)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := emsim.New(emsim.DefaultConfig(mesh, cav))
		if err != nil {
			t.Fatal(err)
		}
		sim.AdvancePeriods(6)
		return sim.Snapshot().TransverseAsymmetry()
	}
	if sym, asym := run(0), run(0.5); asym <= sym {
		t.Errorf("port asymmetry did not induce field asymmetry: %.4f vs %.4f", asym, sym)
	}
}

// ---- Fig 10: strength-styled incremental rendering -----------------------

func BenchmarkFig10StyledIncremental(b *testing.B) {
	fp, _, res := getCavity(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fp.RenderLines(res.Lines, sos.TechRibbon, benchImage, benchImage, vec.New(0.8, 0.45, 0.9)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- C2: extraction cost at different thresholds --------------------------

func BenchmarkExtractionThreshold(b *testing.B) {
	tree := getPhaseTree(b)
	for _, div := range []int{100, 20, 5} {
		budget := int64(benchParticles / div)
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hybrid.Extract(tree, hybrid.ExtractConfig{VolumeRes: benchVolHyb, Budget: budget}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestExtractionPrefixProperty (C2): extraction reads a contiguous
// prefix — the kept point count equals the leaf-offset table entry at
// the cut, with no gathering.
func TestExtractionPrefixProperty(t *testing.T) {
	b := &testing.B{}
	tree := getPhaseTree(b)
	th := tree.ThresholdForBudget(benchParticles / 20)
	cut := tree.CutLeaf(th)
	rep, err := hybrid.Extract(tree, hybrid.ExtractConfig{VolumeRes: benchVolHyb, Threshold: th})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int64(rep.NumPoints()), tree.LeafOffsets[cut]; got != want {
		t.Errorf("halo count %d != prefix length %d", got, want)
	}
}

// ---- C3: frame sizes and load times ---------------------------------------

func TestHybridCompressionRatio(t *testing.T) {
	b := &testing.B{}
	rep, _ := extractAt(b, benchVolHyb, benchParticles/20)
	if f := float64(benchParticles*48) / float64(rep.SizeBytes()); f < 3 {
		t.Errorf("hybrid only %.1fx smaller than raw; expected > 3x at this budget", f)
	}
	// Paper arithmetic: raw 500MB frames -> 2 in memory; hybrid <=
	// 100MB -> ~10 ("a high-end PC is capable of holding around 10 time
	// steps in memory at once").
	raw := pario.FrameBytes(100_000_000) / 10 // paper's ~500MB frame at reduced res
	if raw/rep.SizeBytes() <= 0 {
		t.Error("size arithmetic degenerate")
	}
}

// ---- C7/C8: Courant arithmetic and FDTD step cost ----------------------------

// ---- Ablation: density-sorted prefix extraction vs unsorted gather -----------

// BenchmarkAblationPrefixExtract measures the paper's layout: kept
// points are a contiguous prefix (a single copy).
func BenchmarkAblationPrefixExtract(b *testing.B) {
	tree := getPhaseTree(b)
	th := tree.ThresholdForBudget(benchParticles / 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := tree.LeafOffsets[tree.CutLeaf(th)]
		out := make([]vec.V3, n)
		copy(out, tree.Points[:n])
	}
}

// ---- Ablation: OIT vs depth-sorted transparency ---------------------------

// BenchmarkAblationSortedTransparency is the default transparent mode:
// strips sorted back-to-front per line.
func BenchmarkAblationSortedTransparency(b *testing.B) {
	fp, _, res := getCavity(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fp.RenderLines(res.Lines, sos.TechTransparent, benchImage, benchImage, vec.New(0.8, 0.45, 0.9)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOITTransparency resolves unsorted fragments through
// the order-independent buffer — exact compositing at the cost of
// per-pixel fragment lists (the §3.3.3 extension).
func BenchmarkAblationOITTransparency(b *testing.B) {
	fp, _, res := getCavity(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fp.RenderLines(res.Lines, sos.TechTransparentOIT, benchImage, benchImage, vec.New(0.8, 0.45, 0.9)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation: volume sampling rate ----------------------------------------

// BenchmarkAblationVolrenStepScale sweeps the ray-march oversampling
// factor — the quality/cost dial of the volume renderer.
func BenchmarkAblationVolrenStepScale(b *testing.B) {
	rep, tf := extractAt(b, benchVolHyb, 1)
	cam, err := render.LookAtBounds(rep.Bounds, vec.New(0.2, 0.25, 1), math.Pi/3, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, scale := range []float64{0.25, 0.5, 1.0} {
		b.Run(fmt.Sprintf("step=%.2f", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fb, _ := render.NewFramebuffer(benchImage, benchImage)
				vr, err := volren.New(rep.Volume, tf)
				if err != nil {
					b.Fatal(err)
				}
				vr.StepScale = scale
				vr.Render(fb, cam)
				b.ReportMetric(float64(vr.SampleCount), "samples")
			}
		})
	}
}

// ---- Ablation: enhanced lighting costs nothing extra ------------------------

// BenchmarkAblationSingleLight vs BenchmarkAblationEnhancedLighting
// verifies the paper's "no significant performance penalty" claim for
// multi-light SOS shading.
func BenchmarkAblationSingleLight(b *testing.B) {
	fp, _, res := getCavity(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fp.RenderLines(res.Lines, sos.TechSOS, benchImage, benchImage, vec.New(0.8, 0.45, 0.9)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEnhancedLighting(b *testing.B) {
	fp, _, res := getCavity(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fp.RenderLines(res.Lines, sos.TechEnhanced, benchImage, benchImage, vec.New(0.8, 0.45, 0.9)); err != nil {
			b.Fatal(err)
		}
	}
}
