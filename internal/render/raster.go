package render

import (
	"math"

	"repro/internal/hybrid"
	"repro/internal/vec"
)

// Vertex carries the per-vertex attributes the pipeline interpolates:
// world position, shading normal, texture coordinates and color.
type Vertex struct {
	Pos   vec.V3
	N     vec.V3
	UV    [2]float64
	Color hybrid.RGBA
}

// Fragment is the interpolated state handed to a fragment shader.
type Fragment struct {
	Pos     vec.V3 // world position
	N       vec.V3 // interpolated (unnormalized) shading normal
	UV      [2]float64
	Color   hybrid.RGBA
	ViewDir vec.V3 // unit vector toward the camera
}

// Shader computes a fragment's final color; nil means "use the
// interpolated vertex color unchanged". It is the software analog of
// the fragment stage the paper programs through texturing and register
// combiners. Shaders must be pure functions of their fragment: the
// batched path invokes them from concurrent tile workers.
type Shader func(f Fragment) hybrid.RGBA

// Rasterizer draws primitives into a framebuffer through a camera.
// Configure the public fields, then call the Draw methods. The zero
// value is not usable; construct with NewRasterizer.
//
// Two submission paths share the same per-primitive setup and
// per-fragment kernels, so they produce bit-identical images: the
// immediate Draw* methods rasterize each primitive on the calling
// goroutine, while the batched entry points (DrawPointBatch,
// DrawLineBatch, DrawTriangleStripBatchFunc, or an explicit Batch) bin
// projected primitives into fixed screen tiles and rasterize the tiles
// concurrently — each tile owned by exactly one worker, primitives
// replayed in submission order, with no locks or atomics on the pixel
// data.
type Rasterizer struct {
	FB  *Framebuffer
	Cam Camera

	Mode       BlendMode
	DepthTest  bool
	DepthWrite bool
	Shade      Shader

	// ClipDepth, when true, restricts the pass to fragments whose
	// projected depth lies inside [ClipNear, ClipFar] (inclusive, the
	// normalized-device depth stored in the depth buffer). Fragments
	// outside the slab are dropped before counting, exactly like
	// off-screen culling. This bounds a pass to a depth interval — the
	// sort-last sub-volume render, where each worker draws one octree
	// cell's contents clipped against the cell's depth range (see
	// Camera.DepthRange for a conservative interval).
	ClipDepth         bool
	ClipNear, ClipFar float32

	// Workers bounds the tile parallelism of the batched draw path
	// (0 = par.Workers()). The image is identical at every count.
	Workers int

	// Stats: fragments written and triangles submitted, the cost model
	// the technique-comparison experiments report. Fragments are
	// counted after screen culling, so off-screen splat and line
	// overhang never inflates the technique comparison.
	FragmentCount int64
	TriangleCount int64
	PointCount    int64
	LineCount     int64

	// fragmentSink, when set, intercepts fragments before the
	// framebuffer (used by the order-independent transparency buffer).
	fragmentSink fragmentSink
}

// emitCtx is a per-worker fragment destination: an inclusive clip
// rectangle plus local counters. Tile workers use their tile rect and
// run index as the sink shard; the immediate-mode path uses the full
// screen and shard -1. Keeping the counters here is what lets tile
// workers run without shared mutable state.
type emitCtx struct {
	r              *Rasterizer
	x0, y0, x1, y1 int
	shard          int
	frags          int64
}

// emit routes one in-rect fragment through the optional sink, then the
// framebuffer. Fragments outside the rect — or outside the depth slab
// when ClipDepth is set — are dropped before counting.
func (e *emitCtx) emit(x, y int, depth float32, c hybrid.RGBA) {
	if x < e.x0 || x > e.x1 || y < e.y0 || y > e.y1 {
		return
	}
	r := e.r
	if r.ClipDepth && (depth < r.ClipNear || depth > r.ClipFar) {
		return
	}
	e.frags++
	if r.fragmentSink != nil && r.fragmentSink.sinkFragment(e.shard, x, y, depth, c) {
		return
	}
	r.FB.writeFragment(x, y, depth, c, r.Mode, r.DepthTest, r.DepthWrite)
}

// screenCtx returns the immediate-mode emit context: the whole screen,
// no sink shard.
func (r *Rasterizer) screenCtx() emitCtx {
	return emitCtx{r: r, x1: r.FB.W - 1, y1: r.FB.H - 1, shard: -1}
}

// NewRasterizer returns an opaque-mode rasterizer with depth testing.
func NewRasterizer(fb *Framebuffer, cam Camera) *Rasterizer {
	return &Rasterizer{FB: fb, Cam: cam, Mode: BlendOpaque, DepthTest: true, DepthWrite: true}
}

// ---- point splats ----------------------------------------------------

// kernelSteps quantizes the normalized squared distance d²/r² of a
// point splat into the Gaussian kernel table.
const kernelSteps = 1024

// gaussKernel[i] = exp(-2·i/kernelSteps): the splat falloff
// exp(-d²/(2σ²)) with σ = r/2 tabulated over d²/r² ∈ [0,1], replacing
// a math.Exp per fragment with one indexed load. The quantization
// error is bounded by the table step (≤ 0.2% of full scale).
var gaussKernel [kernelSteps + 1]float64

func init() {
	for i := range gaussKernel {
		gaussKernel[i] = math.Exp(-2 * float64(i) / kernelSteps)
	}
}

// pointSetup is a projected point splat clipped to the screen.
type pointSetup struct {
	cx, cy         int
	x0, y0, x1, y1 int // disc bounding box clamped to the screen
	r2             float64
	qscale         float64 // kernel-table quantization: kernelSteps/r²
	depth          float32
	color          hybrid.RGBA
}

// setupPoint projects one splat. projected=false means the point is
// behind the camera (not drawn, not counted); visible=false means the
// disc misses the screen entirely (counted, but no fragment work).
func (r *Rasterizer) setupPoint(p vec.V3, pixelRadius float64, c hybrid.RGBA, s *pointSetup) (projected, visible bool) {
	sx, sy, depth, ok := r.Cam.WorldToScreen(p, r.FB.W, r.FB.H)
	if !ok {
		return false, false
	}
	if pixelRadius < 0.5 {
		pixelRadius = 0.5
	}
	ir := int(math.Ceil(pixelRadius))
	cx, cy := int(sx), int(sy)
	x0, y0, x1, y1 := cx-ir, cy-ir, cx+ir, cy+ir
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > r.FB.W-1 {
		x1 = r.FB.W - 1
	}
	if y1 > r.FB.H-1 {
		y1 = r.FB.H - 1
	}
	if x0 > x1 || y0 > y1 {
		return true, false
	}
	s.cx, s.cy = cx, cy
	s.x0, s.y0, s.x1, s.y1 = x0, y0, x1, y1
	s.r2 = pixelRadius * pixelRadius
	s.qscale = kernelSteps / s.r2
	s.depth = float32(depth)
	s.color = c
	return true, true
}

// rasterPoint replays the splat's fragments inside e's rect. Every
// per-fragment value depends only on the pixel coordinate and the
// setup, so any sub-rectangle reproduces the full-screen result.
//
// The sink-free case writes the framebuffer directly with the blend
// state hoisted out of the pixel loop; the values stored are exactly
// those the generic emit path would produce, fragment for fragment.
func rasterPoint(s *pointSetup, e *emitCtx) {
	// A splat's fragments share one depth, so the depth slab accepts or
	// rejects it whole — checked here so the fast loops below need no
	// per-fragment clip test.
	if e.r.ClipDepth && (s.depth < e.r.ClipNear || s.depth > e.r.ClipFar) {
		return
	}
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
	r := e.r
	if r.fragmentSink != nil {
		for py := y0; py <= y1; py++ {
			dy := py - s.cy
			for px := x0; px <= x1; px++ {
				dx := px - s.cx
				d2 := float64(dx*dx + dy*dy)
				if d2 > s.r2 {
					continue
				}
				fc := s.color
				fc.A = s.color.A * gaussKernel[int(d2*s.qscale)]
				e.emit(px, py, s.depth, fc)
			}
		}
		return
	}
	fb := r.FB
	mode, depthTest, depthWrite := r.Mode, r.DepthTest, r.DepthWrite
	cr, cg, cb := float32(s.color.R), float32(s.color.G), float32(s.color.B)
	depth := s.depth
	if mode == BlendOpaque && depthTest && depthWrite {
		// The viewer's splat configuration, tightest loop of the
		// pipeline: depth-tested opaque stores only.
		for py := y0; py <= y1; py++ {
			dy := py - s.cy
			rowD := py * fb.W
			for px := x0; px <= x1; px++ {
				dx := px - s.cx
				d2 := float64(dx*dx + dy*dy)
				if d2 > s.r2 {
					continue
				}
				e.frags++
				di := rowD + px
				if depth > fb.Depth[di] {
					continue
				}
				ci := di * 4
				fb.Color[ci] = cr
				fb.Color[ci+1] = cg
				fb.Color[ci+2] = cb
				fb.Color[ci+3] = float32(s.color.A * gaussKernel[int(d2*s.qscale)])
				fb.Depth[di] = depth
			}
		}
		return
	}
	for py := y0; py <= y1; py++ {
		dy := py - s.cy
		rowD := py * fb.W
		for px := x0; px <= x1; px++ {
			dx := px - s.cx
			d2 := float64(dx*dx + dy*dy)
			if d2 > s.r2 {
				continue
			}
			e.frags++
			di := rowD + px
			if depthTest && depth > fb.Depth[di] {
				continue
			}
			a := float32(s.color.A * gaussKernel[int(d2*s.qscale)])
			ci := di * 4
			switch mode {
			case BlendOpaque:
				fb.Color[ci] = cr
				fb.Color[ci+1] = cg
				fb.Color[ci+2] = cb
				fb.Color[ci+3] = a
			case BlendAlpha:
				fb.Color[ci] = cr*a + fb.Color[ci]*(1-a)
				fb.Color[ci+1] = cg*a + fb.Color[ci+1]*(1-a)
				fb.Color[ci+2] = cb*a + fb.Color[ci+2]*(1-a)
				fb.Color[ci+3] = a + fb.Color[ci+3]*(1-a)
			case BlendAdditive:
				fb.Color[ci] += cr * a
				fb.Color[ci+1] += cg * a
				fb.Color[ci+2] += cb * a
				fb.Color[ci+3] += a
			}
			if depthWrite {
				fb.Depth[di] = depth
			}
		}
	}
}

// DrawPoint splats a round point of the given pixel radius with a
// Gaussian alpha falloff, the viewer's particle primitive.
func (r *Rasterizer) DrawPoint(p vec.V3, pixelRadius float64, c hybrid.RGBA) {
	var s pointSetup
	projected, visible := r.setupPoint(p, pixelRadius, c, &s)
	if !projected {
		return
	}
	r.PointCount++
	if !visible {
		return
	}
	e := r.screenCtx()
	rasterPoint(&s, &e)
	r.FragmentCount += e.frags
}

// ---- lines -----------------------------------------------------------

// lineSetup is a near-clipped, projected line.
type lineSetup struct {
	ax, ay, ad     float64 // screen start and depth
	dx, dy, dd     float64 // screen deltas
	steps          int
	ir             int     // stamp radius in pixels (0 for 1px lines)
	w2             float64 // width²/4, the stamp disc test
	width          float64
	c0, c1         hybrid.RGBA
	x0, y0, x1, y1 int // conservative bounding box clamped to the screen
}

// setupLine clips and projects one line. drawn=false means the line is
// entirely behind the near plane (not counted); visible=false means no
// fragment can land on screen (counted, no work).
func (r *Rasterizer) setupLine(p0, p1 vec.V3, width float64, c0, c1 hybrid.RGBA, s *lineSetup) (drawn, visible bool) {
	a := r.Cam.viewSpace(p0)
	b := r.Cam.viewSpace(p1)
	// Clip to the near plane in view space.
	nz := -r.Cam.Near
	if a.Z >= nz && b.Z >= nz {
		return false, false
	}
	if a.Z >= nz || b.Z >= nz {
		t := (nz - a.Z) / (b.Z - a.Z)
		clip := a.Lerp(b, t)
		if a.Z >= nz {
			a = clip
		} else {
			b = clip
		}
	}
	ax, ay, ad, _ := r.Cam.project(a, r.FB.W, r.FB.H)
	bx, by, bd, _ := r.Cam.project(b, r.FB.W, r.FB.H)
	dx, dy := bx-ax, by-ay
	steps := int(math.Max(math.Abs(dx), math.Abs(dy))) + 1
	ir := 0
	if width > 1 {
		ir = int(math.Ceil(width / 2))
	}
	x0 := int(math.Floor(math.Min(ax, bx))) - ir - 1
	x1 := int(math.Ceil(math.Max(ax, bx))) + ir + 1
	y0 := int(math.Floor(math.Min(ay, by))) - ir - 1
	y1 := int(math.Ceil(math.Max(ay, by))) + ir + 1
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > r.FB.W-1 {
		x1 = r.FB.W - 1
	}
	if y1 > r.FB.H-1 {
		y1 = r.FB.H - 1
	}
	if x0 > x1 || y0 > y1 {
		return true, false
	}
	s.ax, s.ay, s.ad = ax, ay, ad
	s.dx, s.dy, s.dd = dx, dy, bd-ad
	s.steps, s.ir = steps, ir
	s.w2, s.width = width*width/4, width
	s.c0, s.c1 = c0, c1
	s.x0, s.y0, s.x1, s.y1 = x0, y0, x1, y1
	return true, true
}

// stepRange returns the inclusive range of step indices whose position
// v(i) = a + (i/steps)·d can fall inside [lo, hi]; any=false when none
// can. The bounds carry a one-step safety margin so float rounding can
// never exclude a step that would emit into the interval.
func stepRange(a, d, lo, hi float64, steps int) (int, int, bool) {
	if d == 0 {
		if a < lo || a > hi {
			return 0, 0, false
		}
		return 0, steps, true
	}
	t0 := (lo - a) / d * float64(steps)
	t1 := (hi - a) / d * float64(steps)
	if t0 > t1 {
		t0, t1 = t1, t0
	}
	i0 := int(math.Floor(t0)) - 1
	i1 := int(math.Ceil(t1)) + 1
	if i1 < 0 || i0 > steps {
		return 0, 0, false
	}
	if i0 < 0 {
		i0 = 0
	}
	if i1 > steps {
		i1 = steps
	}
	return i0, i1, true
}

// rasterLine replays the line's fragments inside e's rect. The step
// walk is restricted to the conservative sub-range that can reach the
// rect; each step computes t from its index alone, so a sub-range
// reproduces exactly the fragments the full walk would emit there.
func rasterLine(s *lineSetup, e *emitCtx) {
	pad := float64(s.ir) + 2
	i0, i1 := 0, s.steps
	lo, hi, any := stepRange(s.ax, s.dx, float64(e.x0)-pad, float64(e.x1)+pad, s.steps)
	if !any {
		return
	}
	if lo > i0 {
		i0 = lo
	}
	if hi < i1 {
		i1 = hi
	}
	lo, hi, any = stepRange(s.ay, s.dy, float64(e.y0)-pad, float64(e.y1)+pad, s.steps)
	if !any {
		return
	}
	if lo > i0 {
		i0 = lo
	}
	if hi < i1 {
		i1 = hi
	}
	for i := i0; i <= i1; i++ {
		t := float64(i) / float64(s.steps)
		x := s.ax + t*s.dx
		y := s.ay + t*s.dy
		d := s.ad + t*s.dd
		c := s.c0.Lerp(s.c1, t)
		if s.width <= 1 {
			e.emit(int(x), int(y), float32(d), c)
			continue
		}
		for oy := -s.ir; oy <= s.ir; oy++ {
			for ox := -s.ir; ox <= s.ir; ox++ {
				if float64(ox*ox+oy*oy) > s.w2 {
					continue
				}
				e.emit(int(x)+ox, int(y)+oy, float32(d), c)
			}
		}
	}
}

// DrawLine draws a depth-interpolated line with the given pixel width.
// Widths > 1 stamp a small disc at each step (the "fat line" fallback
// the conventional line-drawing technique of Fig 6(a) uses).
func (r *Rasterizer) DrawLine(p0, p1 vec.V3, width float64, c0, c1 hybrid.RGBA) {
	var s lineSetup
	drawn, visible := r.setupLine(p0, p1, width, c0, c1, &s)
	if !drawn {
		return
	}
	r.LineCount++
	if !visible {
		return
	}
	e := r.screenCtx()
	rasterLine(&s, &e)
	r.FragmentCount += e.frags
}

// ---- triangles -------------------------------------------------------

// tvert is a submitted vertex after the view and projection transforms.
// A flush transforms every vertex once, however many triangles index it
// (a strip vertex is in up to three).
type tvert struct {
	pos     vec.V3  // view space
	x, y, d float64 // screen position and projected depth, valid when ok
	w       float64 // inverse view-space depth, for perspective-correct interpolation
	ok      bool    // in front of the near plane
}

// transformVertex fills t from a world position; projectVertex from
// t.pos, for a vertex made in view space by clipping.
func (r *Rasterizer) transformVertex(world vec.V3, t *tvert) {
	t.pos = r.Cam.viewSpace(world)
	r.projectVertex(t)
}

func (r *Rasterizer) projectVertex(t *tvert) {
	t.x, t.y, t.d, t.ok = r.Cam.project(t.pos, r.FB.W, r.FB.H)
	t.w = -1 / t.pos.Z
}

// overflow holds what near-plane clipping adds to the submitted
// geometry: the vertices interpolated onto the plane and, when a
// clipped triangle becomes a quad, its second triangle. A triangle in
// front of the plane adds nothing, so the arrays stay empty unless the
// camera is inside the scene.
type overflow struct {
	verts []Vertex
	tv    []tvert
	tris  []triSetup
}

func (o *overflow) reset() {
	o.verts, o.tv, o.tris = o.verts[:0], o.tv[:0], o.tris[:0]
}

// triSource is the vertex storage the indices of a triSetup refer to:
// index i >= 0 is submitted vertex i, index i < 0 is overflow vertex ^i.
type triSource struct {
	verts []Vertex
	tv    []tvert
	over  *overflow
}

func (t *triSource) vertex(i int32) (*Vertex, *tvert) {
	if i >= 0 {
		return &t.verts[i], &t.tv[i]
	}
	return &t.over.verts[^i], &t.over.tv[^i]
}

// clipLerp appends the vertex a fraction t of the way from a to b — the
// intersection of edge a→b with the near plane — to the overflow and
// returns its index.
func (r *Rasterizer) clipLerp(src *triSource, a, b int32, t float64) int32 {
	va, ta := src.vertex(a)
	vb, tb := src.vertex(b)
	v := Vertex{
		Pos:   va.Pos.Lerp(vb.Pos, t),
		N:     va.N.Lerp(vb.N, t),
		UV:    [2]float64{va.UV[0] + t*(vb.UV[0]-va.UV[0]), va.UV[1] + t*(vb.UV[1]-va.UV[1])},
		Color: va.Color.Lerp(vb.Color, t),
	}
	tv := tvert{pos: ta.pos.Lerp(tb.pos, t)}
	r.projectVertex(&tv)
	o := src.over
	o.verts = append(o.verts, v)
	o.tv = append(o.tv, tv)
	return ^int32(len(o.verts) - 1)
}

// triSetup is one projected, screen-clipped raster triangle: the
// indices of its three vertices (see triSource) and its edge functions
// in affine form, wk(x, y) = basek + x·dwkdx + y·dwkdy evaluated at
// pixel centers (w2 = 1 - w0 - w1). The affine form makes every pixel's
// coverage and weights a pure function of its coordinates, so tile and
// full-screen iteration agree bitwise while each row costs just one
// multiply-add per edge to step. Attributes, depths and inverse depths
// are read through the indices, not copied in.
type triSetup struct {
	v                   [3]int32
	next                int32 // index in overflow.tris of the clipped quad's second triangle, or -1
	base0, dw0dx, dw0dy float64
	base1, dw1dx, dw1dy float64
	x0, y0, x1, y1      int // bounding box clamped to the screen; x1 < x0 marks an empty record
}

// setupTriangle derives the edge coefficients of one triangle of
// transformed vertices. ok=false when a vertex is on or behind the near
// plane, or the triangle is entirely off screen or degenerate — the
// early rejection that keeps such geometry out of the per-pixel loop.
func (r *Rasterizer) setupTriangle(src *triSource, a, b, c int32, s *triSetup) bool {
	_, ta := src.vertex(a)
	_, tb := src.vertex(b)
	_, tc := src.vertex(c)
	if !ta.ok || !tb.ok || !tc.ok {
		return false
	}
	w, h := r.FB.W, r.FB.H
	ax, ay := ta.x, ta.y
	bx, by := tb.x, tb.y
	cx, cy := tc.x, tc.y
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
	s.v = [3]int32{a, b, c}
	s.next = -1
	s.base0 = (bx*cy - by*cx) * invArea
	s.dw0dx = (by - cy) * invArea
	s.dw0dy = (cx - bx) * invArea
	s.base1 = (cx*ay - cy*ax) * invArea
	s.dw1dx = (cy - ay) * invArea
	s.dw1dy = (ax - cx) * invArea
	s.x0, s.y0, s.x1, s.y1 = minX, minY, maxX, maxY
	return true
}

// setupClipped clips triangle (i0, i1, i2) against the near plane and
// sets up what is left: nothing, one triangle, or the two triangles of
// a quad. The first goes to s; the second is appended to the overflow
// and linked from s.next. It returns how many were set up; with none, s
// is marked empty.
//
// A triangle wholly in front of the plane — every triangle, unless the
// camera is inside the scene — is its own clip result and skips the
// polygon walk. Otherwise the walk is Sutherland-Hodgman over vertex
// indices, the intersections appended to the overflow by clipLerp. The
// polygon (at most four vertices) is fanned from its first vertex.
func (r *Rasterizer) setupClipped(src *triSource, i0, i1, i2 int32, s *triSetup) int {
	nz := -r.Cam.Near
	poly, n := [4]int32{i0, i1, i2}, 3
	in := [3]bool{src.tv[i0].pos.Z < nz, src.tv[i1].pos.Z < nz, src.tv[i2].pos.Z < nz}
	if !(in[0] && in[1] && in[2]) {
		tri := poly
		n = 0
		for i := 0; i < 3; i++ {
			j := (i + 1) % 3
			if in[i] {
				poly[n] = tri[i]
				n++
			}
			if in[i] != in[j] {
				cz, nextZ := src.tv[tri[i]].pos.Z, src.tv[tri[j]].pos.Z
				poly[n] = r.clipLerp(src, tri[i], tri[j], (nz-cz)/(nextZ-cz))
				n++
			}
		}
	}
	done := 0
	for j := 1; j+1 < n; j++ {
		if done == 0 {
			if r.setupTriangle(src, poly[0], poly[j], poly[j+1], s) {
				done = 1
			}
			continue
		}
		var second triSetup
		if r.setupTriangle(src, poly[0], poly[j], poly[j+1], &second) {
			s.next = int32(len(src.over.tris))
			src.over.tris = append(src.over.tris, second)
			done = 2
		}
	}
	if done == 0 {
		s.x0, s.x1 = 0, -1
	}
	return done
}

// rasterTriangle fills the triangle inside e's rect with
// perspective-correct attribute interpolation.
func rasterTriangle(s *triSetup, src *triSource, e *emitCtx) {
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
	a, ta := src.vertex(s.v[0])
	b, tb := src.vertex(s.v[1])
	c, tc := src.vertex(s.v[2])
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
			depth := w0*ta.d + w1*tb.d + w2*tc.d
			// Perspective-correct weights.
			pw := w0*ta.w + w1*tb.w + w2*tc.w
			u0 := w0 * ta.w / pw
			u1 := w1 * tb.w / pw
			u2 := w2 * tc.w / pw

			col := hybrid.RGBA{
				R: u0*a.Color.R + u1*b.Color.R + u2*c.Color.R,
				G: u0*a.Color.G + u1*b.Color.G + u2*c.Color.G,
				B: u0*a.Color.B + u1*b.Color.B + u2*c.Color.B,
				A: u0*a.Color.A + u1*b.Color.A + u2*c.Color.A,
			}
			if r.Shade != nil {
				world := a.Pos.Scale(u0).Add(b.Pos.Scale(u1)).Add(c.Pos.Scale(u2))
				frag := Fragment{
					Pos:     world,
					N:       a.N.Scale(u0).Add(b.N.Scale(u1)).Add(c.N.Scale(u2)),
					UV:      [2]float64{u0*a.UV[0] + u1*b.UV[0] + u2*c.UV[0], u0*a.UV[1] + u1*b.UV[1] + u2*c.UV[1]},
					Color:   col,
					ViewDir: r.Cam.ViewDir(world),
				}
				col = r.Shade(frag)
				if col.A <= 0 {
					continue
				}
			}
			e.emit(px, py, float32(depth), col)
		}
	}
}

// drawSetup rasterizes what setupClipped made of one triangle into e.
func drawSetup(n int, s *triSetup, src *triSource, e *emitCtx) {
	if n >= 1 {
		rasterTriangle(s, src, e)
	}
	if n == 2 {
		rasterTriangle(&src.over.tris[s.next], src, e)
	}
}

// DrawTriangle rasterizes one triangle with perspective-correct
// attribute interpolation and near-plane clipping. It is the batched
// path's kernels run on a three-vertex source, which is why the two
// agree bit for bit.
func (r *Rasterizer) DrawTriangle(v0, v1, v2 Vertex) {
	r.TriangleCount++
	verts := [3]Vertex{v0, v1, v2}
	var tv [3]tvert
	for i := range verts {
		r.transformVertex(verts[i].Pos, &tv[i])
	}
	var over overflow // allocates only if the near plane cuts the triangle
	src := triSource{verts: verts[:], tv: tv[:], over: &over}
	var s triSetup
	n := r.setupClipped(&src, 0, 1, 2, &s)
	e := r.screenCtx()
	drawSetup(n, &s, &src, &e)
	r.FragmentCount += e.frags
}
