// Command benchreport regenerates every figure and quantitative claim
// of the paper at a configurable scale and prints a table of
// paper-claim vs measured values. PNG artifacts for the figures land in
// the -artifacts directory. Performance is measured by the benchmark in
// bench/ (see bench/README.md), not here.
//
// Usage:
//
//	benchreport -scale small -artifacts out/
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/beam"
	"repro/internal/core"
	"repro/internal/emsim"
	"repro/internal/hybrid"
	"repro/internal/lineio"
	"repro/internal/octree"
	"repro/internal/pario"
	"repro/internal/render"
	"repro/internal/sos"
	"repro/internal/stats"
	"repro/internal/vec"
	"repro/internal/volren"
)

type scaleParams struct {
	particles  int
	volumeFull int // "256^3" stand-in
	volumeHyb  int // "64^3" stand-in
	imageSize  int
	cavityRes  int
	lines      int
	periods    float64
	timeSteps  int // Fig 5 frames
}

var scales = map[string]scaleParams{
	"small":  {particles: 50_000, volumeFull: 64, volumeHyb: 16, imageSize: 128, cavityRes: 8, lines: 120, periods: 6, timeSteps: 8},
	"medium": {particles: 500_000, volumeFull: 128, volumeHyb: 32, imageSize: 256, cavityRes: 12, lines: 300, periods: 8, timeSteps: 8},
	"large":  {particles: 2_000_000, volumeFull: 256, volumeHyb: 64, imageSize: 512, cavityRes: 16, lines: 600, periods: 10, timeSteps: 8},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchreport: ")
	var (
		scale     = flag.String("scale", "small", "small | medium | large")
		artifacts = flag.String("artifacts", "", "directory for PNG artifacts (empty = none)")
	)
	flag.Parse()
	p, ok := scales[*scale]
	if !ok {
		log.Fatalf("unknown scale %q", *scale)
	}
	if *artifacts != "" {
		if err := os.MkdirAll(*artifacts, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("== benchreport scale=%s ==\n\n", *scale)
	r := &reporter{params: p, dir: *artifacts}
	r.fig1()
	r.fig2()
	r.fig4()
	r.fig5()
	r.fig6()
	r.fig7and10()
	r.fig8()
	r.fig9()
	r.claims()
}

type reporter struct {
	params scaleParams
	dir    string

	// Cached pipeline state shared across figures.
	rep  *hybrid.Representation
	tree *octree.Tree
	sim  *beam.Sim
}

func (r *reporter) save(fb *render.Framebuffer, name string) {
	if r.dir == "" {
		return
	}
	if err := fb.WritePNG(filepath.Join(r.dir, name)); err != nil {
		log.Fatal(err)
	}
}

// beamFrame lazily runs the beam simulation once.
func (r *reporter) beamFrame() beam.Frame {
	if r.sim == nil {
		cfg := beam.DefaultConfig(r.params.particles)
		sim, err := beam.NewSim(cfg)
		if err != nil {
			log.Fatal(err)
		}
		sim.RunPeriods(20)
		r.sim = sim
	}
	return r.sim.Snapshot()
}

func (r *reporter) phaseTree() *octree.Tree {
	if r.tree == nil {
		f := r.beamFrame()
		pts := make([]vec.V3, f.E.Len())
		axes := [3]beam.Axis{beam.AxisX, beam.AxisPX, beam.AxisY}
		for i := range pts {
			pts[i] = f.E.Point3(i, axes)
		}
		tree, err := octree.Build(pts, octree.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		r.tree = tree
	}
	return r.tree
}

// fig1 compares full-resolution volume rendering against the hybrid
// (low-res volume + points) on the (x, px, y) phase plot.
func (r *reporter) fig1() {
	p := r.params
	tree := r.phaseTree()

	// Full-resolution reference volume.
	fullRep, err := hybrid.Extract(tree, hybrid.ExtractConfig{VolumeRes: p.volumeFull, Budget: 1})
	if err != nil {
		log.Fatal(err)
	}
	// Hybrid: low-res volume + point budget.
	hybRep, err := hybrid.Extract(tree, hybrid.ExtractConfig{VolumeRes: p.volumeHyb, Budget: int64(p.particles / 25)})
	if err != nil {
		log.Fatal(err)
	}
	tfFull, err := core.DefaultTF(fullRep)
	if err != nil {
		log.Fatal(err)
	}
	tfHyb, err := core.DefaultTF(hybRep)
	if err != nil {
		log.Fatal(err)
	}

	view := vec.New(0.2, 0.25, 1)
	renderOne := func(rep *hybrid.Representation, tf *hybrid.LinkedTF, usePoints bool) (*render.Framebuffer, time.Duration) {
		fb, err := render.NewFramebuffer(p.imageSize, p.imageSize)
		if err != nil {
			log.Fatal(err)
		}
		cam, err := render.LookAtBounds(rep.Bounds, view, math.Pi/3, 1)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		if usePoints {
			if _, _, err := volren.RenderHybrid(rep, tf, fb, cam, 1.2, false); err != nil {
				log.Fatal(err)
			}
		} else {
			vr, err := volren.New(rep.Volume, tf)
			if err != nil {
				log.Fatal(err)
			}
			vr.Render(fb, cam)
		}
		return fb, time.Since(start)
	}

	fbFull, tFull := renderOne(fullRep, tfFull, false)
	fbHyb, tHyb := renderOne(hybRep, tfHyb, true)
	r.save(fbFull, "fig1_volume.png")
	r.save(fbHyb, "fig1_hybrid.png")

	speedup := tFull.Seconds() / tHyb.Seconds()
	detailFull := stats.GradientEnergy(fbFull)
	detailHyb := stats.GradientEnergy(fbHyb)
	fmt.Printf("Fig 1  volume %d^3: %v | hybrid %d^3+%d pts: %v | speedup %.1fx (paper: \"much higher frame rates\")\n",
		p.volumeFull, tFull.Round(time.Millisecond), p.volumeHyb, hybRep.NumPoints(), tHyb.Round(time.Millisecond), speedup)
	fmt.Printf("       detail (gradient energy): volume %.4f, hybrid %.4f (paper: hybrid \"provides more detail\")\n\n",
		detailFull, detailHyb)
}

// fig2 renders the four phase-space distributions of Fig 2.
func (r *reporter) fig2() {
	f := r.beamFrame()
	plots := [][3]beam.Axis{
		{beam.AxisX, beam.AxisY, beam.AxisZ},
		{beam.AxisX, beam.AxisPX, beam.AxisY},
		{beam.AxisX, beam.AxisPX, beam.AxisZ},
		{beam.AxisPX, beam.AxisPY, beam.AxisPZ},
	}
	fmt.Printf("Fig 2  four distributions at step %d:\n", f.Step)
	for _, axes := range plots {
		pts := make([]vec.V3, f.E.Len())
		for i := range pts {
			pts[i] = f.E.Point3(i, axes)
		}
		tree, err := octree.Build(pts, octree.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		rep, err := hybrid.Extract(tree, hybrid.ExtractConfig{VolumeRes: r.params.volumeHyb, Budget: int64(r.params.particles / 25)})
		if err != nil {
			log.Fatal(err)
		}
		tf, err := core.DefaultTF(rep)
		if err != nil {
			log.Fatal(err)
		}
		fb, _, _, err := core.RenderFrame(rep, tf, r.params.imageSize, r.params.imageSize, vec.New(0.3, 0.25, 1))
		if err != nil {
			log.Fatal(err)
		}
		name := fmt.Sprintf("fig2_%s_%s_%s.png", axes[0], axes[1], axes[2])
		r.save(fb, name)
		fmt.Printf("       (%s,%s,%s): %d points, coverage %d px\n",
			axes[0], axes[1], axes[2], rep.NumPoints(), fb.CoveredPixels(0.01))
	}
	fmt.Println()
}

// fig4 renders the volume-only / combined / points-only decomposition.
func (r *reporter) fig4() {
	p := r.params
	f := r.beamFrame()
	pts := make([]vec.V3, f.E.Len())
	axes := [3]beam.Axis{beam.AxisX, beam.AxisY, beam.AxisZ}
	for i := range pts {
		pts[i] = f.E.Point3(i, axes)
	}
	tree, err := octree.Build(pts, octree.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	rep, err := hybrid.Extract(tree, hybrid.ExtractConfig{VolumeRes: p.volumeHyb, Budget: int64(p.particles / 20)})
	if err != nil {
		log.Fatal(err)
	}
	tf, err := core.DefaultTF(rep)
	if err != nil {
		log.Fatal(err)
	}
	cam, err := render.LookAtBounds(rep.Bounds, vec.New(0.2, 0.3, 1), math.Pi/3, 1)
	if err != nil {
		log.Fatal(err)
	}

	// Volume only.
	fbV, _ := render.NewFramebuffer(p.imageSize, p.imageSize)
	vr, err := volren.New(rep.Volume, tf)
	if err != nil {
		log.Fatal(err)
	}
	vr.Render(fbV, cam)
	// Points only (opaque, Fig 4 note).
	fbP, _ := render.NewFramebuffer(p.imageSize, p.imageSize)
	rast := render.NewRasterizer(fbP, cam)
	splats := make([]render.PointSplat, len(rep.Points))
	for i := range rep.Points {
		d := tf.MapDensity(float64(rep.PointDensity[i]))
		c := tf.Color.Eval(d)
		c.A = 1
		splats[i] = render.PointSplat{Pos: rep.Points[i], Radius: 1.2, Color: c}
	}
	rast.DrawPointBatch(splats)
	// Combined.
	fbC, _ := render.NewFramebuffer(p.imageSize, p.imageSize)
	if _, _, err := volren.RenderHybrid(rep, tf, fbC, cam, 1.2, true); err != nil {
		log.Fatal(err)
	}
	r.save(fbV, "fig4_volume_only.png")
	r.save(fbC, "fig4_combined.png")
	r.save(fbP, "fig4_points_only.png")
	fmt.Printf("Fig 4  decomposition coverage (px): volume %d, points %d, combined %d (combined >= both parts)\n\n",
		fbV.CoveredPixels(0.01), fbP.CoveredPixels(0.01), fbC.CoveredPixels(0.01))
}

// fig5 runs the time-series evolution and checks four-fold symmetry.
func (r *reporter) fig5() {
	p := r.params
	cfg := beam.DefaultConfig(p.particles / 4)
	sim, err := beam.NewSim(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Fig 5  %d-frame beam evolution (four-fold symmetry score; 0 = perfect):\n", p.timeSteps)
	var totalHybrid int64
	for s := 0; s < p.timeSteps; s++ {
		sim.RunPeriods(4)
		f := sim.Snapshot()
		pts := make([]vec.V3, f.E.Len())
		for i := range pts {
			pts[i] = f.E.Point3(i, [3]beam.Axis{beam.AxisX, beam.AxisY, beam.AxisZ})
		}
		tree, err := octree.Build(pts, octree.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		rep, err := hybrid.Extract(tree, hybrid.ExtractConfig{VolumeRes: p.volumeHyb, Budget: int64(len(pts) / 20)})
		if err != nil {
			log.Fatal(err)
		}
		totalHybrid += rep.SizeBytes()
		sym := beam.FourFoldSymmetry(f.E)
		fmt.Printf("       frame %2d: step %5d  sym %.3f  hybrid %7d B (raw %d B)\n",
			s, f.Step, sym, rep.SizeBytes(), pario.FrameBytes(int64(f.E.Len())))
		if r.dir != "" {
			tf, err := core.DefaultTF(rep)
			if err != nil {
				log.Fatal(err)
			}
			// The paper's Fig 5 view: looking down z, the beam axis.
			fb, _, _, err := core.RenderFrame(rep, tf, p.imageSize, p.imageSize, vec.New(0, 0, 1))
			if err != nil {
				log.Fatal(err)
			}
			r.save(fb, fmt.Sprintf("fig5_frame%02d.png", s))
		}
	}
	raw := pario.FrameBytes(int64(p.particles / 4))
	fmt.Printf("       mean hybrid frame %.2f MB vs raw %.2f MB -> %.0fx more frames fit in memory\n\n",
		float64(totalHybrid)/float64(p.timeSteps)/1e6, float64(raw)/1e6,
		float64(raw)*float64(p.timeSteps)/float64(totalHybrid))
}

func (r *reporter) fig6() {
	p := r.params
	fp := core.NewFieldPipeline(p.cavityRes, p.lines)
	frame, err := fp.Solve(p.periods)
	if err != nil {
		log.Fatal(err)
	}
	res, err := fp.TraceE(frame)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Fig 6  technique comparison (%d lines):\n", len(res.Lines))
	var sosTris, tubeTris int64
	for i, tech := range sos.Techniques() {
		fb, st, err := fp.RenderLines(res.Lines, tech, p.imageSize, p.imageSize, vec.New(0.8, 0.45, 0.9))
		if err != nil {
			log.Fatal(err)
		}
		r.save(fb, fmt.Sprintf("fig6_%c_%s.png", 'a'+i, tech))
		fmt.Printf("       (%c) %-12s %8d tris %10d frags %8v\n",
			'a'+i, tech, st.Triangles, st.Fragments, st.Elapsed.Round(time.Millisecond))
		switch tech {
		case sos.TechSOS:
			sosTris = st.Triangles
		case sos.TechStreamtubes:
			tubeTris = st.Triangles
		}
	}
	fmt.Printf("       streamtube/SOS triangle factor: %.1fx (paper: \"five to six times less\")\n\n",
		float64(tubeTris)/float64(sosTris))
	_ = frame
}

func (r *reporter) fig7and10() {
	p := r.params
	fp := core.NewFieldPipeline(p.cavityRes, p.lines)
	frame, err := fp.Solve(p.periods)
	if err != nil {
		log.Fatal(err)
	}
	res, err := fp.TraceE(frame)
	if err != nil {
		log.Fatal(err)
	}
	mesh, err := fp.Mesh()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Fig 7  incremental loading (density correlation per prefix):\n")
	for _, frac := range []float64{0.125, 0.25, 0.5, 1.0} {
		n := int(frac * float64(len(res.Lines)))
		if n < 1 {
			n = 1
		}
		corr := res.DensityCorrelation(mesh, n)
		fb, _, err := fp.RenderLines(res.Prefix(n), sos.TechSOS, p.imageSize, p.imageSize, vec.New(0.8, 0.45, 0.9))
		if err != nil {
			log.Fatal(err)
		}
		r.save(fb, fmt.Sprintf("fig7_prefix%03d.png", n))
		fmt.Printf("       first %4d lines: correlation %.3f, coverage %d px\n", n, corr, fb.CoveredPixels(0.01))
	}
	// Fig 10: the same sweep, styled by strength (opacity & color).
	fb, _, err := fp.RenderLines(res.Lines, sos.TechRibbon, p.imageSize, p.imageSize, vec.New(0.8, 0.45, 0.9))
	if err != nil {
		log.Fatal(err)
	}
	r.save(fb, "fig10_styled.png")
	fmt.Printf("Fig 10 strength-styled rendering written (ribbon density + opacity by |E|)\n\n")
}

func (r *reporter) fig8() {
	p := r.params
	fp := core.NewFieldPipeline(p.cavityRes, p.lines/2)
	fmt.Printf("Fig 8  RF propagation (filling a multi-cell structure is slow — hence the paper's 326,700-step runs):\n")
	prevLast := 0.0
	for s := 0; s < 4; s++ {
		frame, err := fp.Solve(p.periods / 4)
		if err != nil {
			log.Fatal(err)
		}
		// Measure the RF reaching the far end: mean |E| in the last cell
		// vs the first (power flows in at cell 0 and out at the last).
		mesh, _ := fp.Mesh()
		cav := fp.Cavity
		firstZ := cav.PipeLength + cav.CellLength/2
		lastZ := cav.TotalLength() - cav.PipeLength - cav.CellLength/2
		var first, last float64
		var nFirst, nLast int
		for e := range mesh.Elements {
			z := mesh.Elements[e].Center.Z
			if math.Abs(z-firstZ) < cav.CellLength/2 {
				first += frame.ElementEMagnitude(e)
				nFirst++
			}
			if math.Abs(z-lastZ) < cav.CellLength/2 {
				last += frame.ElementEMagnitude(e)
				nLast++
			}
		}
		if nFirst > 0 {
			first /= float64(nFirst)
		}
		if nLast > 0 {
			last /= float64(nLast)
		}
		res, err := fp.TraceE(frame)
		if err != nil {
			log.Fatal(err)
		}
		fb, _, err := fp.RenderLines(res.Lines, sos.TechSOS, p.imageSize, p.imageSize, vec.New(0.8, 0.45, 0.9))
		if err != nil {
			log.Fatal(err)
		}
		r.save(fb, fmt.Sprintf("fig8_snap%d.png", s))
		growth := 0.0
		if prevLast > 0 {
			growth = last / prevLast
		}
		prevLast = last
		fmt.Printf("       t=%.2f: mean |E| first cell %.4g, last cell %.4g (last-cell growth %.1fx/snapshot)\n",
			frame.Time, first, last, growth)
	}
	fmt.Println()
}

func (r *reporter) fig9() {
	p := r.params
	run := func(asym float64) (float64, int) {
		fp := core.NewFieldPipeline(p.cavityRes, p.lines/2)
		fp.Cavity.Cells = 6 // scaled-down 12-cell study
		fp.Cavity.InputPort.Asymmetry = asym
		fp.Cavity.OutputPort.Cell = 5
		fp.Cavity.OutputPort.Asymmetry = asym
		frame, err := fp.Solve(p.periods)
		if err != nil {
			log.Fatal(err)
		}
		mesh, err := fp.Mesh()
		if err != nil {
			log.Fatal(err)
		}
		if r.dir != "" && asym > 0 {
			res, err := fp.TraceE(frame)
			if err != nil {
				log.Fatal(err)
			}
			fb, _, err := fp.RenderLines(res.Lines, sos.TechCutaway, p.imageSize, p.imageSize, vec.New(1, 0.2, 0.3))
			if err != nil {
				log.Fatal(err)
			}
			r.save(fb, "fig9_cutaway.png")
		}
		return frame.TransverseAsymmetry(), mesh.NumElements()
	}
	sym, elems := run(0)
	asym, _ := run(0.4)
	fmt.Printf("Fig 9  multi-cell structure (%d elements at this scale; paper: 1.6M):\n", elems)
	fmt.Printf("       field asymmetry: symmetric ports %.4f, asymmetric ports %.4f (paper: port asymmetry causes field asymmetry)\n",
		sym, asym)
	fmt.Printf("       paper-scale storage: 1.6M elements x 48 B = %.1f MB/step; 326,700 steps -> %.1f TB\n\n",
		1.6e6*48/1e6, 1.6e6*48*326700/1e12)
}

func (r *reporter) claims() {
	p := r.params
	fmt.Printf("Claims:\n")
	// C1: partition scaling.
	for _, n := range []int{p.particles / 4, p.particles / 2, p.particles} {
		f := r.beamFrame()
		_ = f
		pts := make([]vec.V3, n)
		e := r.beamFrame().E
		for i := 0; i < n; i++ {
			pts[i] = e.Point3(i%e.Len(), [3]beam.Axis{beam.AxisX, beam.AxisY, beam.AxisZ})
		}
		start := time.Now()
		if _, err := octree.Build(pts, octree.DefaultConfig()); err != nil {
			log.Fatal(err)
		}
		el := time.Since(start)
		fmt.Printf("  C1   partition %8d pts: %8v  (%.2f Mpts/s; paper: linear scaling, I/O bound)\n",
			n, el.Round(time.Millisecond), float64(n)/el.Seconds()/1e6)
	}
	// C2/C3: extraction + sizes.
	tree := r.phaseTree()
	for _, budget := range []int64{int64(p.particles / 100), int64(p.particles / 20), int64(p.particles / 5)} {
		start := time.Now()
		rep, err := hybrid.Extract(tree, hybrid.ExtractConfig{VolumeRes: p.volumeHyb, Budget: budget})
		if err != nil {
			log.Fatal(err)
		}
		el := time.Since(start)
		fmt.Printf("  C2   extract budget %8d: %8v, %8d pts, hybrid %8.2f MB (%.1fx smaller than raw)\n",
			budget, el.Round(time.Millisecond), rep.NumPoints(),
			float64(rep.SizeBytes())/1e6, rep.CompressionFactor(int64(p.particles)))
	}
	// C3 paper arithmetic.
	fmt.Printf("  C3   paper scale: raw 100M pts = %.1f GB/frame; hybrid <= 100 MB -> ~10 frames in memory vs 2\n",
		float64(pario.FrameBytes(100_000_000))/1e9)
	// C5 formula.
	fmt.Printf("  C5   SOS strip: %d tris per 50-pt line; 6-sided tube: %d (%.0fx)\n",
		sos.StripTriangles(50), sos.TubeTriangles(50, 6),
		float64(sos.TubeTriangles(50, 6))/float64(sos.StripTriangles(50)))
	// C6: line storage saving at this scale.
	fp := core.NewFieldPipeline(p.cavityRes, p.lines)
	frame, err := fp.Solve(p.periods)
	if err != nil {
		log.Fatal(err)
	}
	res, err := fp.TraceE(frame)
	if err != nil {
		log.Fatal(err)
	}
	lb := lineio.LinesBytes(res.Lines)
	fmt.Printf("  C6   line storage: %d lines = %.2f MB vs raw field %.2f MB -> %.1fx saving (paper: ~25x)\n",
		len(res.Lines), float64(lb)/1e6, float64(frame.RawBytes())/1e6,
		lineio.SavingFactor(frame.RawBytes(), lb))
	// C7/C8: Courant arithmetic.
	fmt.Printf("  C7   paper Courant: 40 ns at dt=1.224e-13 s = %.0f steps (paper: 326,700)\n",
		emsim.PaperScaleSteps(40e-9, 63.57e-6, 1.0))
	fmt.Printf("  C8   100 ns at the same spacing, safety 0.5 = %.2g steps (paper: \"millions\")\n",
		emsim.PaperScaleSteps(100e-9, 63.57e-6, 0.5))
}
