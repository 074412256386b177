package sos

import (
	"fmt"
	"time"

	"repro/internal/fieldline"
	"repro/internal/hybrid"
	"repro/internal/par"
	"repro/internal/render"
	"repro/internal/vec"
)

// Technique enumerates the nine field-line rendering modes of Fig 6.
type Technique int

// The Fig 6 rendering modes, in the paper's panel order.
const (
	TechLines       Technique = iota // (a) conventional line drawing
	TechIlluminated                  // (b) illuminated streamlines (ref [13])
	TechStreamtubes                  // (c) conventional polygonal streamtubes
	TechSOS                          // (d) self-orienting surfaces with tube shading
	TechRibbon                       // (e) compact textured ribbon, density by strength
	TechEnhanced                     // (f) SOS with enhanced (multi-light) lighting
	TechDense                        // (g) dense opaque lines
	TechCutaway                      // (h) cutaway of the dense set
	TechTransparent                  // (i) transparency-de-emphasized context

	// TechTransparentOIT is the §3.3.3 extension: the same focus+context
	// split resolved through an order-independent transparency buffer
	// (the GeForce 3 feature the paper proposes coupling with), with
	// bump mapping disabled as the paper notes it requires.
	TechTransparentOIT
)

// String implements fmt.Stringer.
func (t Technique) String() string {
	switch t {
	case TechLines:
		return "lines"
	case TechIlluminated:
		return "illuminated"
	case TechStreamtubes:
		return "streamtubes"
	case TechSOS:
		return "sos"
	case TechRibbon:
		return "ribbon"
	case TechEnhanced:
		return "enhanced"
	case TechDense:
		return "dense"
	case TechCutaway:
		return "cutaway"
	case TechTransparent:
		return "transparent"
	case TechTransparentOIT:
		return "transparent-oit"
	}
	return fmt.Sprintf("Technique(%d)", int(t))
}

// Techniques lists all nine modes in panel order.
func Techniques() []Technique {
	return []Technique{
		TechLines, TechIlluminated, TechStreamtubes, TechSOS, TechRibbon,
		TechEnhanced, TechDense, TechCutaway, TechTransparent,
	}
}

// RenderOptions configures RenderLines.
type RenderOptions struct {
	Width       float64 // strip/tube world width
	TubeSides   int     // streamtube tessellation (default 6)
	HaloStart   float64 // SOS halo band start (0 disables)
	Color       hybrid.RGBA
	ColorMap    hybrid.ColorMap
	MaxStrength float64 // strength normalization across lines (0 = per line)
	// CutNormal/CutOffset define the cutaway plane for TechCutaway.
	CutNormal vec.V3
	CutOffset float64
	// FocusCenter/FocusRadius define the opaque region of interest for
	// TechTransparent; context outside is drawn semi-transparent.
	FocusCenter vec.V3
	FocusRadius float64
}

// DefaultOptions returns sensible options for the given scene scale.
func DefaultOptions(sceneDiagonal float64) RenderOptions {
	return RenderOptions{
		Width:     sceneDiagonal / 150,
		TubeSides: 6,
		HaloStart: 0.8,
		Color:     hybrid.RGBA{R: 0.35, G: 0.55, B: 1, A: 1},
		ColorMap:  hybrid.HeatMap(),
	}
}

// Stats reports what one RenderLines call cost — the numbers behind
// the Fig 6 technique comparison and the C5 triangle-count claim.
type Stats struct {
	Technique Technique
	Lines     int
	Triangles int64
	Fragments int64
	Elapsed   time.Duration
}

// RenderLines draws the given field lines with the selected technique
// and returns cost statistics. The light setup is a headlight plus,
// for TechEnhanced, two fill lights (the paper's "enhanced lighting ...
// carries no significant performance penalty over a single light
// source", which the stats let benchmarks verify).
func RenderLines(fb *render.Framebuffer, cam render.Camera, lines []*fieldline.Line,
	tech Technique, opts RenderOptions) Stats {

	start := time.Now()
	rast := render.NewRasterizer(fb, cam)
	headlight := render.Light{Dir: cam.Eye.Norm(), Color: hybrid.RGBA{R: 1, G: 1, B: 1, A: 1}, Intensity: 1}
	lights := []render.Light{headlight}
	if tech == TechEnhanced {
		lights = append(lights,
			render.Light{Dir: vec.New(1, 2, 0.5).Norm(), Color: hybrid.RGBA{R: 0.9, G: 0.9, B: 1, A: 1}, Intensity: 0.5},
			render.Light{Dir: vec.New(-1, 0.5, -1).Norm(), Color: hybrid.RGBA{R: 1, G: 0.95, B: 0.8, A: 1}, Intensity: 0.35},
		)
	}
	mat := render.DefaultPhong()

	// drawStripsIn draws the lines' strips in the given submission order.
	// The rasterizer reserves every strip's vertices in its own batch and
	// calls fillStrip (a pure function of one line) concurrently to
	// build them in place.
	drawStripsIn := func(ls []*fieldline.Line, order []int, params StripParams) {
		counts := make([]int, len(order))
		for k, li := range order {
			counts[k] = stripVertices(ls[li].NumPoints())
		}
		rast.DrawTriangleStripBatchFunc(counts, func(k int, dst []render.Vertex) {
			fillStrip(dst, ls[order[k]], cam.Eye, params)
		})
	}

	drawStrips := func(ls []*fieldline.Line, shader render.Shader, params StripParams, blend render.BlendMode) {
		rast.Mode = blend
		rast.Shade = shader
		drawStripsIn(ls, SortByDepth(ls, cam.Eye), params)
	}

	switch tech {
	case TechLines, TechDense:
		var segs []render.LineSeg
		for _, l := range lines {
			for i := 1; i < l.NumPoints(); i++ {
				segs = append(segs, render.LineSeg{P0: l.Points[i-1], P1: l.Points[i], Width: 1, C0: opts.Color, C1: opts.Color})
			}
		}
		rast.DrawLineBatch(segs)

	case TechIlluminated:
		var segs []render.LineSeg
		for _, l := range lines {
			for i := 1; i < l.NumPoints(); i++ {
				c0 := render.IlluminatedLineColor(opts.Color, l.Tangents[i-1], headlight.Dir, cam.ViewDir(l.Points[i-1]), mat)
				c1 := render.IlluminatedLineColor(opts.Color, l.Tangents[i], headlight.Dir, cam.ViewDir(l.Points[i]), mat)
				segs = append(segs, render.LineSeg{P0: l.Points[i-1], P1: l.Points[i], Width: 1, C0: c0, C1: c1})
			}
		}
		rast.DrawLineBatch(segs)

	case TechStreamtubes:
		rast.Shade = render.PhongShader(lights, mat)
		tubes := make([][]render.Vertex, len(lines))
		par.For(len(lines), 0, func(i int) {
			tubes[i] = BuildTube(lines[i], opts.Width/2, opts.TubeSides, opts.Color)
		})
		batch := rast.NewBatch()
		for _, tube := range tubes {
			for i := 0; i+2 < len(tube); i += 3 {
				batch.Triangle(tube[i], tube[i+1], tube[i+2])
			}
		}
		batch.Flush()

	case TechSOS, TechEnhanced:
		drawStrips(lines, render.TubeShader(lights, mat, opts.HaloStart),
			StripParams{Width: opts.Width, MaxStrength: opts.MaxStrength, Color: opts.Color},
			render.BlendOpaque)

	case TechRibbon:
		// Wider ribbons, fewer of them, with stripe density encoding
		// field strength (Fig 6(e)).
		drawStrips(lines, render.RibbonDensityShader(lights, mat, 5),
			StripParams{Width: opts.Width * 4, MaxStrength: opts.MaxStrength, Color: opts.Color},
			render.BlendOpaque)

	case TechCutaway:
		clipped := ClipLines(lines, opts.CutNormal, opts.CutOffset)
		drawStrips(clipped, render.TubeShader(lights, mat, opts.HaloStart),
			StripParams{Width: opts.Width, MaxStrength: opts.MaxStrength, Color: opts.Color},
			render.BlendOpaque)

	case TechTransparent, TechTransparentOIT:
		// Context (outside the focus region) drawn transparent; the
		// region of interest stays opaque. Per the paper, transparency
		// requires disabling the bump-map shading, so context strips use
		// plain Phong on the strip side vector. TechTransparent sorts
		// strips back-to-front; TechTransparentOIT instead resolves
		// unsorted fragments through an order-independent buffer.
		inFocus := func(l *fieldline.Line) bool {
			mid := l.Points[l.NumPoints()/2]
			return mid.Dist(opts.FocusCenter) < opts.FocusRadius
		}
		var focus, context []*fieldline.Line
		for _, l := range lines {
			if l.NumPoints() == 0 {
				continue
			}
			if inFocus(l) {
				focus = append(focus, l)
			} else {
				context = append(context, l)
			}
		}
		ctxColor := opts.Color
		ctxColor.A = 0.15
		// Opaque focus first so the transparent context can be
		// occlusion-tested against it.
		drawStrips(focus, render.TubeShader(lights, mat, opts.HaloStart),
			StripParams{Width: opts.Width, Color: opts.Color},
			render.BlendOpaque)
		if tech == TechTransparentOIT {
			oit := render.NewOITBuffer(fb.W, fb.H)
			restore := rast.AttachOIT(oit)
			rast.Mode = render.BlendAlpha
			rast.Shade = render.PhongShader(lights, mat)
			// Submission order deliberately unsorted: correctness comes
			// from the resolve. The batched draw captures fragments into
			// per-tile OIT buckets concurrently.
			order := make([]int, len(context))
			for i := range order {
				order[i] = i
			}
			drawStripsIn(context, order, StripParams{Width: opts.Width, Color: ctxColor})
			restore()
			oit.Resolve(fb)
		} else {
			rast.DepthWrite = false
			drawStrips(context, render.PhongShader(lights, mat),
				StripParams{Width: opts.Width, Color: ctxColor},
				render.BlendAlpha)
			rast.DepthWrite = true
		}
	}

	return Stats{
		Technique: tech,
		Lines:     len(lines),
		Triangles: rast.TriangleCount,
		Fragments: rast.FragmentCount,
		Elapsed:   time.Since(start),
	}
}
