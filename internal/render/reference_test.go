package render

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/hybrid"
	"repro/internal/vec"
)

// ---- the reference triangle path --------------------------------------
//
// What follows is the triangle path this package shipped before
// triangles were set up from shared, once-transformed vertices:
// refDrawTriangle transforms its three vertices itself, clips copies of
// them, and copies three more into every record. It is kept, verbatim
// but for the ref prefix, as the oracle the indexed path is held to:
// the batched and immediate paths now share their kernels, so only an
// independent implementation can say the kernels are still right.

// refClipVert is a view-space vertex used during near-plane clipping.
type refClipVert struct {
	pos   vec.V3 // view space
	world vec.V3
	n     vec.V3
	uv    [2]float64
	color hybrid.RGBA
}

func refLerpClip(a, b refClipVert, t float64) refClipVert {
	return refClipVert{
		pos:   a.pos.Lerp(b.pos, t),
		world: a.world.Lerp(b.world, t),
		n:     a.n.Lerp(b.n, t),
		uv:    [2]float64{a.uv[0] + t*(b.uv[0]-a.uv[0]), a.uv[1] + t*(b.uv[1]-a.uv[1])},
		color: a.color.Lerp(b.color, t),
	}
}

// clipTriangle Sutherland-Hodgman clips the triangle against the near
// plane into dst (reused to avoid allocation) and returns the clipped
// polygon, which has at most 4 vertices.
func (r *Rasterizer) refClipTriangle(v0, v1, v2 Vertex, dst []refClipVert) []refClipVert {
	poly := [3]refClipVert{
		{pos: r.Cam.viewSpace(v0.Pos), world: v0.Pos, n: v0.N, uv: v0.UV, color: v0.Color},
		{pos: r.Cam.viewSpace(v1.Pos), world: v1.Pos, n: v1.N, uv: v1.UV, color: v1.Color},
		{pos: r.Cam.viewSpace(v2.Pos), world: v2.Pos, n: v2.N, uv: v2.UV, color: v2.Color},
	}
	nz := -r.Cam.Near
	clipped := dst[:0]
	for i := 0; i < len(poly); i++ {
		cur, next := poly[i], poly[(i+1)%len(poly)]
		curIn := cur.pos.Z < nz
		nextIn := next.pos.Z < nz
		if curIn {
			clipped = append(clipped, cur)
		}
		if curIn != nextIn {
			t := (nz - cur.pos.Z) / (next.pos.Z - cur.pos.Z)
			clipped = append(clipped, refLerpClip(cur, next, t))
		}
	}
	return clipped
}

// refTriSetup is one projected, screen-clipped raster triangle with its
// edge functions in affine form: wk(x, y) = basek + x·dwkdx + y·dwkdy
// evaluated at pixel centers (w2 = 1 - w0 - w1). The affine form makes
// every pixel's coverage and weights a pure function of its
// coordinates, so band and full-screen iteration agree bitwise while
// each row costs just one multiply-add per edge to step.
type refTriSetup struct {
	a, b, c             refClipVert
	ad, bd, cd          float64 // projected depths
	aw, bw, cw          float64 // inverse view-space depths
	base0, dw0dx, dw0dy float64
	base1, dw1dx, dw1dy float64
	x0, y0, x1, y1      int // bounding box clamped to the screen
}

// setupTriangle projects one near-clipped view-space triangle and
// derives its edge coefficients. ok=false when the triangle is behind
// the near plane, degenerate, or entirely off screen — the early
// rejection that keeps off-screen geometry out of the per-pixel loop.
func (r *Rasterizer) refSetupTriangle(a, b, c refClipVert, s *refTriSetup) bool {
	w, h := r.FB.W, r.FB.H
	ax, ay, ad, ok0 := r.Cam.project(a.pos, w, h)
	bx, by, bd, ok1 := r.Cam.project(b.pos, w, h)
	cx, cy, cd, ok2 := r.Cam.project(c.pos, w, h)
	if !ok0 || !ok1 || !ok2 {
		return false
	}
	minX := int(math.Floor(math.Min(ax, math.Min(bx, cx))))
	maxX := int(math.Ceil(math.Max(ax, math.Max(bx, cx))))
	minY := int(math.Floor(math.Min(ay, math.Min(by, cy))))
	maxY := int(math.Ceil(math.Max(ay, math.Max(by, cy))))
	if minX < 0 {
		minX = 0
	}
	if minY < 0 {
		minY = 0
	}
	if maxX >= w {
		maxX = w - 1
	}
	if maxY >= h {
		maxY = h - 1
	}
	if minX > maxX || minY > maxY {
		return false
	}
	area := (bx-ax)*(cy-ay) - (by-ay)*(cx-ax)
	if area == 0 {
		return false
	}
	invArea := 1 / area
	s.a, s.b, s.c = a, b, c
	s.ad, s.bd, s.cd = ad, bd, cd
	// Inverse view-space depth for perspective-correct interpolation.
	s.aw, s.bw, s.cw = -1/a.pos.Z, -1/b.pos.Z, -1/c.pos.Z
	s.base0 = (bx*cy - by*cx) * invArea
	s.dw0dx = (by - cy) * invArea
	s.dw0dy = (cx - bx) * invArea
	s.base1 = (cx*ay - cy*ax) * invArea
	s.dw1dx = (cy - ay) * invArea
	s.dw1dy = (ax - cx) * invArea
	s.x0, s.y0, s.x1, s.y1 = minX, minY, maxX, maxY
	return true
}

// rasterTriangle fills the triangle inside e's rect with
// perspective-correct attribute interpolation.
func refRasterTriangle(s *refTriSetup, e *emitCtx) {
	r := e.r
	x0, y0, x1, y1 := s.x0, s.y0, s.x1, s.y1
	if x0 < e.x0 {
		x0 = e.x0
	}
	if y0 < e.y0 {
		y0 = e.y0
	}
	if x1 > e.x1 {
		x1 = e.x1
	}
	if y1 > e.y1 {
		y1 = e.y1
	}
	for py := y0; py <= y1; py++ {
		y := float64(py) + 0.5
		row0 := s.base0 + y*s.dw0dy
		row1 := s.base1 + y*s.dw1dy
		for px := x0; px <= x1; px++ {
			x := float64(px) + 0.5
			w0 := row0 + x*s.dw0dx
			w1 := row1 + x*s.dw1dx
			w2 := 1 - w0 - w1
			if w0 < 0 || w1 < 0 || w2 < 0 {
				continue
			}
			depth := w0*s.ad + w1*s.bd + w2*s.cd
			// Perspective-correct weights.
			pw := w0*s.aw + w1*s.bw + w2*s.cw
			u0 := w0 * s.aw / pw
			u1 := w1 * s.bw / pw
			u2 := w2 * s.cw / pw

			col := hybrid.RGBA{
				R: u0*s.a.color.R + u1*s.b.color.R + u2*s.c.color.R,
				G: u0*s.a.color.G + u1*s.b.color.G + u2*s.c.color.G,
				B: u0*s.a.color.B + u1*s.b.color.B + u2*s.c.color.B,
				A: u0*s.a.color.A + u1*s.b.color.A + u2*s.c.color.A,
			}
			if r.Shade != nil {
				world := s.a.world.Scale(u0).Add(s.b.world.Scale(u1)).Add(s.c.world.Scale(u2))
				frag := Fragment{
					Pos:     world,
					N:       s.a.n.Scale(u0).Add(s.b.n.Scale(u1)).Add(s.c.n.Scale(u2)),
					UV:      [2]float64{u0*s.a.uv[0] + u1*s.b.uv[0] + u2*s.c.uv[0], u0*s.a.uv[1] + u1*s.b.uv[1] + u2*s.c.uv[1]},
					Color:   col,
					ViewDir: r.Cam.ViewDir(world),
				}
				col = r.Shade(&frag)
				if col.A <= 0 {
					continue
				}
			}
			e.emit(px, py, float32(depth), col)
		}
	}
}

// refDrawTriangle rasterizes one triangle with perspective-correct
// attribute interpolation and near-plane clipping.
func (r *Rasterizer) refDrawTriangle(v0, v1, v2 Vertex) {
	r.TriangleCount++
	var clipBuf [4]refClipVert
	clipped := r.refClipTriangle(v0, v1, v2, clipBuf[:])
	if len(clipped) < 3 {
		return
	}
	e := r.screenCtx()
	var s refTriSetup
	for i := 1; i+1 < len(clipped); i++ {
		if r.refSetupTriangle(clipped[0], clipped[i], clipped[i+1], &s) {
			refRasterTriangle(&s, &e)
		}
	}
	r.FragmentCount += e.frags
}

// refPainter paints a scene's triangles and strips through the
// reference path; points and lines, which this change does not touch,
// go through the product's immediate path.
type refPainter struct{ r *Rasterizer }

func (p refPainter) point(pt vec.V3, radius float64, c hybrid.RGBA) { p.r.DrawPoint(pt, radius, c) }
func (p refPainter) line(p0, p1 vec.V3, w float64, c0, c1 hybrid.RGBA) {
	p.r.DrawLine(p0, p1, w, c0, c1)
}
func (p refPainter) triangle(v0, v1, v2 Vertex) { p.r.refDrawTriangle(v0, v1, v2) }
func (p refPainter) strip(verts []Vertex) {
	for i := 0; i+2 < len(verts); i++ {
		if i%2 == 0 {
			p.r.refDrawTriangle(verts[i], verts[i+1], verts[i+2])
		} else {
			p.r.refDrawTriangle(verts[i+1], verts[i], verts[i+2])
		}
	}
}

// TestTrianglePathMatchesReference: the indexed triangle path — the
// immediate DrawTriangle, the mixed Batch at every core count and the
// strip entry points — writes the reference path's bits and counts the
// reference path's fragments, in every blend mode, over a scene with
// sub-pixel strips, near-plane crossings (one and two vertices behind
// the plane), zero-area triangles and off-screen geometry.
func TestTrianglePathMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const w, h = 193, 161
	cam, err := NewCamera(vec.New(0, 0, 5), vec.New(0, 0, 0), vec.New(0, 1, 0), math.Pi/3, float64(w)/float64(h), 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	sameStats := func(label string, got, want *Rasterizer) {
		t.Helper()
		if got.FragmentCount != want.FragmentCount || got.TriangleCount != want.TriangleCount {
			t.Errorf("%s: %d fragments / %d triangles, reference %d / %d", label,
				got.FragmentCount, got.TriangleCount, want.FragmentCount, want.TriangleCount)
		}
	}
	for _, mode := range []string{"opaque", "alpha", "additive-shaded"} {
		fbRef, _ := NewFramebuffer(w, h)
		ref := NewRasterizer(fbRef, cam)
		configureMode(ref, mode)
		paintScene(refPainter{ref})
		if ref.FragmentCount == 0 {
			t.Fatal("reference drew nothing")
		}

		fbImm, _ := NewFramebuffer(w, h)
		imm := NewRasterizer(fbImm, cam)
		configureMode(imm, mode)
		paintScene(immediatePainter{imm})
		framebuffersEqual(t, mode+"/immediate", fbRef, fbImm)
		sameStats(mode+"/immediate", imm, ref)

		for _, procs := range []int{1, 2, 3, 4, 7, 8, 200} {
			runtime.GOMAXPROCS(procs)
			fb, _ := NewFramebuffer(w, h)
			rast := NewRasterizer(fb, cam)
			configureMode(rast, mode)
			bp := newBatchPainter(rast)
			paintScene(bp)
			bp.flush()
			label := fmt.Sprintf("%s/batch/GOMAXPROCS=%d", mode, procs)
			framebuffersEqual(t, label, fbRef, fb)
			sameStats(label, rast, ref)
		}
	}

	// The scene must contain what the test claims to cover.
	census := &triCensus{cam: cam, w: w, h: h}
	paintScene(census)
	for behind, n := range census.behind {
		if n == 0 {
			t.Errorf("scene has no triangle with %d vertices behind the near plane", behind)
		}
	}
	if census.zeroArea == 0 || census.subPixel < 1000 {
		t.Errorf("scene has %d zero-area and %d sub-pixel triangles, want some and >= 1000", census.zeroArea, census.subPixel)
	}

	// The strip entry points, on the strips alone.
	var strips [][]Vertex
	paintScene(stripCollector{&strips})
	fbRef, _ := NewFramebuffer(w, h)
	ref := NewRasterizer(fbRef, cam)
	for _, s := range strips {
		refPainter{ref}.strip(s)
	}
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		fb, _ := NewFramebuffer(w, h)
		rast := NewRasterizer(fb, cam)
		rast.DrawTriangleStripBatch(strips)
		framebuffersEqual(t, fmt.Sprintf("DrawTriangleStripBatch/GOMAXPROCS=%d", procs), fbRef, fb)
		sameStats("DrawTriangleStripBatch", rast, ref)

		// Twice over through one rasterizer: the second flush reuses the
		// first one's scratch and must not see its leftovers.
		fb2, _ := NewFramebuffer(w, h)
		rast2 := NewRasterizer(fb2, cam)
		counts := make([]int, len(strips))
		for k, s := range strips {
			counts[k] = len(s)
		}
		fill := func(k int, dst []Vertex) { copy(dst, strips[k]) }
		rast2.DrawTriangleStripBatchFunc(counts[:3], func(k int, dst []Vertex) { copy(dst, strips[k]) })
		fb2.Clear(hybrid.RGBA{})
		rast2.ResetStats()
		rast2.DrawTriangleStripBatchFunc(counts, fill)
		framebuffersEqual(t, fmt.Sprintf("DrawTriangleStripBatchFunc/GOMAXPROCS=%d", procs), fbRef, fb2)
		sameStats("DrawTriangleStripBatchFunc", rast2, ref)
	}
}

// stripCollector keeps a scene's strips and drops everything else.
type stripCollector struct{ strips *[][]Vertex }

func (stripCollector) point(vec.V3, float64, hybrid.RGBA)                     {}
func (stripCollector) line(vec.V3, vec.V3, float64, hybrid.RGBA, hybrid.RGBA) {}
func (stripCollector) triangle(Vertex, Vertex, Vertex)                        {}
func (c stripCollector) strip(verts []Vertex) {
	*c.strips = append(*c.strips, append([]Vertex(nil), verts...))
}

// triCensus classifies a scene's triangles by how the near plane cuts
// them and by projected size.
type triCensus struct {
	cam                Camera
	w, h               int
	behind             [4]int // by number of vertices on or behind the near plane
	zeroArea, subPixel int
}

func (triCensus) point(vec.V3, float64, hybrid.RGBA)                     {}
func (triCensus) line(vec.V3, vec.V3, float64, hybrid.RGBA, hybrid.RGBA) {}
func (c *triCensus) triangle(v0, v1, v2 Vertex) {
	var x, y [3]float64
	behind := 0
	for i, v := range []Vertex{v0, v1, v2} {
		var ok bool
		if x[i], y[i], _, ok = c.cam.WorldToScreen(v.Pos, c.w, c.h); !ok {
			behind++
		}
	}
	c.behind[behind]++
	if behind > 0 {
		return
	}
	area := (x[1]-x[0])*(y[2]-y[0]) - (y[1]-y[0])*(x[2]-x[0])
	switch {
	case area == 0:
		c.zeroArea++
	case math.Abs(area) < 2: // under one pixel
		c.subPixel++
	}
}
func (c *triCensus) strip(verts []Vertex) {
	for i := 0; i+2 < len(verts); i++ {
		c.triangle(verts[i], verts[i+1], verts[i+2])
	}
}

// DrawTriangleStripBatch is DrawTriangleStripBatchFunc for strips that
// already exist as slices: the form the entry-point equivalence test and
// the strip benchmarks submit.
func (r *Rasterizer) DrawTriangleStripBatch(strips [][]Vertex) {
	counts := make([]int, len(strips))
	for k, s := range strips {
		counts[k] = len(s)
	}
	r.DrawTriangleStripBatchFunc(counts, func(k int, dst []Vertex) { copy(dst, strips[k]) })
}
