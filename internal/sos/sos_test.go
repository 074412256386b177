package sos

import (
	"math"
	"testing"

	"repro/internal/fieldline"
	"repro/internal/hybrid"
	"repro/internal/render"
	"repro/internal/vec"
)

// helix returns a helical field line with n points.
func helix(n int) *fieldline.Line {
	l := &fieldline.Line{}
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n-1) * 4 * math.Pi
		p := vec.New(math.Cos(t), math.Sin(t), t/8)
		tang := vec.New(-math.Sin(t), math.Cos(t), 1.0/8).Norm()
		l.Points = append(l.Points, p)
		l.Tangents = append(l.Tangents, tang)
		l.Strengths = append(l.Strengths, 1+math.Sin(t/2))
	}
	return l
}

func straightLine(n int) *fieldline.Line {
	l := &fieldline.Line{}
	for i := 0; i < n; i++ {
		l.Points = append(l.Points, vec.New(float64(i)*0.1, 0, 0))
		l.Tangents = append(l.Tangents, vec.New(1, 0, 0))
		l.Strengths = append(l.Strengths, 2)
	}
	return l
}

func testCam(t *testing.T) render.Camera {
	t.Helper()
	cam, err := render.NewCamera(vec.New(0, 0, 8), vec.New(0, 0, 0), vec.New(0, 1, 0),
		math.Pi/3, 1, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	return cam
}

// BuildStrip is fillStrip into a slice of its own, for the geometry
// tests, which want the vertices themselves.
func BuildStrip(line *fieldline.Line, eye vec.V3, p StripParams) []render.Vertex {
	n := stripVertices(line.NumPoints())
	if n == 0 {
		return nil
	}
	verts := make([]render.Vertex, n)
	fillStrip(verts, line, eye, p)
	return verts
}

// StripTriangles returns the triangle count of the self-orienting
// strip for a line with n points: 2(n-1).
func StripTriangles(n int) int {
	if n < 2 {
		return 0
	}
	return 2 * (n - 1)
}

// TubeTriangles returns the triangle count of a conventional polygonal
// streamtube with the given number of cross-section sides for a line
// with n points: 2*sides*(n-1) (ignoring end caps). The paper's
// "about five to six times less" corresponds to the typical 5-6 sided
// tube tessellation.
func TubeTriangles(n, sides int) int {
	if n < 2 {
		return 0
	}
	return 2 * sides * (n - 1)
}

func TestBuildStripVertexCount(t *testing.T) {
	line := helix(20)
	verts := BuildStrip(line, vec.New(0, 0, 8), StripParams{Width: 0.1, Color: hybrid.RGBA{R: 1, A: 1}})
	if len(verts) != 40 {
		t.Fatalf("strip has %d vertices, want 40", len(verts))
	}
	// Degenerate lines produce nothing.
	if BuildStrip(&fieldline.Line{}, vec.New(0, 0, 8), StripParams{Width: 0.1}) != nil {
		t.Error("empty line produced vertices")
	}
}

func TestStripOrientsTowardViewer(t *testing.T) {
	// For every vertex pair, the across-strip direction must be
	// perpendicular to both the tangent and the view direction.
	line := helix(30)
	eye := vec.New(3, -2, 10)
	verts := BuildStrip(line, eye, StripParams{Width: 0.2, Color: hybrid.RGBA{A: 1}})
	for i := 0; i < len(verts); i += 2 {
		pt := line.Points[i/2]
		across := verts[i+1].Pos.Sub(verts[i].Pos).Norm()
		view := eye.Sub(pt).Norm()
		tang := line.Tangents[i/2]
		if math.Abs(across.Dot(view)) > 1e-9 {
			t.Fatalf("vertex %d: across-strip not perpendicular to view (dot %g)", i, across.Dot(view))
		}
		if math.Abs(across.Dot(tang)) > 1e-9 {
			t.Fatalf("vertex %d: across-strip not perpendicular to tangent (dot %g)", i, across.Dot(tang))
		}
	}
}

func TestStripWidth(t *testing.T) {
	line := straightLine(5)
	verts := BuildStrip(line, vec.New(0, 0, 8), StripParams{Width: 0.3, Color: hybrid.RGBA{A: 1}})
	for i := 0; i < len(verts); i += 2 {
		w := verts[i+1].Pos.Dist(verts[i].Pos)
		if math.Abs(w-0.3) > 1e-9 {
			t.Fatalf("strip width %g at sample %d, want 0.3", w, i/2)
		}
	}
}

func TestStripUVConvention(t *testing.T) {
	line := straightLine(4)
	verts := BuildStrip(line, vec.New(0, 0, 8), StripParams{Width: 0.1, Color: hybrid.RGBA{A: 1}})
	for i := 0; i < len(verts); i += 2 {
		if verts[i].UV[0] != -1 || verts[i+1].UV[0] != 1 {
			t.Fatalf("UV[0] convention broken at pair %d: %v / %v", i/2, verts[i].UV, verts[i+1].UV)
		}
		// Constant strength 2 equals the line max, so UV[1] = 1.
		if verts[i].UV[1] != 1 {
			t.Fatalf("UV[1] = %v, want 1", verts[i].UV[1])
		}
	}
}

func TestStripSideContinuity(t *testing.T) {
	// Along a smooth helix, consecutive side vectors must never flip.
	line := helix(100)
	verts := BuildStrip(line, vec.New(0, 0, 8), StripParams{Width: 0.1, Color: hybrid.RGBA{A: 1}})
	for i := 2; i < len(verts); i += 2 {
		prev := verts[i-1].Pos.Sub(verts[i-2].Pos)
		cur := verts[i+1].Pos.Sub(verts[i].Pos)
		if prev.Dot(cur) < 0 {
			t.Fatalf("side vector flipped at sample %d", i/2)
		}
	}
}

// The paper's compactness claim (C5): a self-orienting strip uses
// about 5-6x fewer triangles than a typical polygonal streamtube.
func TestSOSTriangleFactor(t *testing.T) {
	n := 50
	strip := StripTriangles(n)
	if strip != 98 {
		t.Fatalf("StripTriangles(50) = %d, want 98", strip)
	}
	for _, sides := range []int{5, 6} {
		tube := TubeTriangles(n, sides)
		factor := float64(tube) / float64(strip)
		if factor != float64(sides) {
			t.Errorf("triangle factor for %d-sided tube = %g, want %d", sides, factor, sides)
		}
	}
	// The generated geometry matches the formulas.
	line := helix(n)
	verts := BuildStrip(line, vec.New(0, 0, 8), StripParams{Width: 0.1, Color: hybrid.RGBA{A: 1}})
	gotStrip := len(verts) - 2
	if gotStrip != strip {
		t.Errorf("strip geometry yields %d triangles, formula says %d", gotStrip, strip)
	}
	tube := BuildTube(line, 0.05, 6, hybrid.RGBA{A: 1})
	if len(tube)/3 != TubeTriangles(n, 6) {
		t.Errorf("tube geometry yields %d triangles, formula says %d", len(tube)/3, TubeTriangles(n, 6))
	}
}

func TestTubeNormalsPointOutward(t *testing.T) {
	line := straightLine(10)
	tube := BuildTube(line, 0.2, 8, hybrid.RGBA{A: 1})
	for i, v := range tube {
		// For a straight x-axis tube, normals must be perpendicular to x.
		if math.Abs(v.N.X) > 1e-9 {
			t.Fatalf("vertex %d normal %v not perpendicular to tube axis", i, v.N)
		}
		if math.Abs(v.N.Len()-1) > 1e-9 {
			t.Fatalf("vertex %d normal not unit: %v", i, v.N)
		}
	}
}

func TestSortByDepthBackToFront(t *testing.T) {
	near := straightLine(5) // at z=0
	farLine := &fieldline.Line{}
	for i := 0; i < 5; i++ {
		farLine.Points = append(farLine.Points, vec.New(float64(i)*0.1, 0, -5))
		farLine.Tangents = append(farLine.Tangents, vec.New(1, 0, 0))
		farLine.Strengths = append(farLine.Strengths, 1)
	}
	eye := vec.New(0, 0, 8)
	order := SortByDepth([]*fieldline.Line{near, farLine}, eye)
	if order[0] != 1 || order[1] != 0 {
		t.Errorf("depth order %v, want far line first", order)
	}
}

func TestClipLines(t *testing.T) {
	line := straightLine(10) // x from 0 to 0.9
	// Cut away x > 0.45.
	clipped := ClipLines([]*fieldline.Line{line}, vec.New(1, 0, 0), 0.45)
	if len(clipped) != 1 {
		t.Fatalf("clip produced %d lines, want 1", len(clipped))
	}
	for _, p := range clipped[0].Points {
		if p.X > 0.45 {
			t.Fatalf("point %v survived the cut", p)
		}
	}
	// Cutting through the middle of a line that re-enters produces
	// multiple segments.
	wave := &fieldline.Line{}
	for i := 0; i < 20; i++ {
		t := float64(i) * 0.5
		wave.Points = append(wave.Points, vec.New(math.Sin(t), 0, t))
		wave.Tangents = append(wave.Tangents, vec.New(math.Cos(t), 0, 1).Norm())
		wave.Strengths = append(wave.Strengths, 1)
	}
	parts := ClipLines([]*fieldline.Line{wave}, vec.New(1, 0, 0), 0.5)
	if len(parts) < 2 {
		t.Errorf("re-entrant line clipped into %d parts, want >= 2", len(parts))
	}
}

func TestRenderLinesAllTechniques(t *testing.T) {
	lines := []*fieldline.Line{helix(40), straightLine(20)}
	cam := testCam(t)
	for _, tech := range Techniques() {
		fb, err := render.NewFramebuffer(64, 64)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions(4)
		opts.CutNormal = vec.New(0, 0, 1)
		opts.CutOffset = 0.2
		opts.FocusCenter = vec.New(0, 0, 0)
		opts.FocusRadius = 1.5
		stats := RenderLines(fb, cam, lines, tech, opts)
		if stats.Technique != tech {
			t.Errorf("%v: wrong technique in stats", tech)
		}
		if fb.CoveredPixels(0.01) == 0 {
			t.Errorf("%v: rendered a black frame", tech)
		}
		switch tech {
		case TechLines, TechIlluminated, TechDense:
			if stats.Triangles != 0 {
				t.Errorf("%v: line technique drew %d triangles", tech, stats.Triangles)
			}
		default:
			if stats.Triangles == 0 {
				t.Errorf("%v: no triangles drawn", tech)
			}
		}
	}
}

// Fig 6 cost relation: streamtubes must draw ~TubeSides times the
// strip triangles for the same lines.
func TestStreamtubeCostExceedsSOS(t *testing.T) {
	lines := []*fieldline.Line{helix(60), helix(80)}
	cam := testCam(t)
	opts := DefaultOptions(4)
	fb1, _ := render.NewFramebuffer(64, 64)
	sosStats := RenderLines(fb1, cam, lines, TechSOS, opts)
	fb2, _ := render.NewFramebuffer(64, 64)
	tubeStats := RenderLines(fb2, cam, lines, TechStreamtubes, opts)
	ratio := float64(tubeStats.Triangles) / float64(sosStats.Triangles)
	if ratio < 5.5 || ratio > 6.5 {
		t.Errorf("tube/strip triangle ratio %.2f, want ~6 (6-sided tubes)", ratio)
	}
}

func TestCutawayDrawsFewerFragments(t *testing.T) {
	lines := []*fieldline.Line{helix(60), helix(80), straightLine(30)}
	cam := testCam(t)
	opts := DefaultOptions(4)
	opts.CutNormal = vec.New(0, 0, 1)
	opts.CutOffset = 0 // cut the front half (z > 0)
	fb1, _ := render.NewFramebuffer(64, 64)
	full := RenderLines(fb1, cam, lines, TechSOS, opts)
	fb2, _ := render.NewFramebuffer(64, 64)
	cut := RenderLines(fb2, cam, lines, TechCutaway, opts)
	if cut.Triangles >= full.Triangles {
		t.Errorf("cutaway drew %d triangles >= full %d", cut.Triangles, full.Triangles)
	}
}
