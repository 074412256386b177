package render

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/hybrid"
	"repro/internal/vec"
)

// lcg is a tiny deterministic generator for scene construction.
type lcg uint64

func (r *lcg) next() float64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return float64(*r>>11) / float64(1<<53)
}

func (r *lcg) rangeF(lo, hi float64) float64 { return lo + (hi-lo)*r.next() }

// sceneDraw submits a mixed scene — splats of varying radii, thin and
// fat lines, overlapping triangles and strips, including off-screen
// and near-plane-straddling geometry — through the given callbacks so
// the immediate and batched paths replay the identical sequence.
type scenePainter interface {
	point(p vec.V3, radius float64, c hybrid.RGBA)
	line(p0, p1 vec.V3, width float64, c0, c1 hybrid.RGBA)
	triangle(v0, v1, v2 Vertex)
	strip(verts []Vertex)
}

func paintScene(p scenePainter) {
	rng := lcg(2002)
	col := func() hybrid.RGBA {
		return hybrid.RGBA{R: rng.next(), G: rng.next(), B: rng.next(), A: 0.3 + 0.7*rng.next()}
	}
	pos := func(spread float64) vec.V3 {
		// Mostly in view; the spread pushes some geometry off screen
		// and some behind the camera / across the near plane.
		return vec.New(rng.rangeF(-spread, spread), rng.rangeF(-spread, spread), rng.rangeF(-spread, 6))
	}
	for i := 0; i < 400; i++ {
		p.point(pos(4), rng.rangeF(0.3, 5), col())
	}
	for i := 0; i < 120; i++ {
		w := 1.0
		if i%3 == 0 {
			w = rng.rangeF(2, 6)
		}
		p.line(pos(5), pos(5), w, col(), col())
	}
	vert := func(spread float64) Vertex {
		return Vertex{Pos: pos(spread), N: vec.New(rng.next(), rng.next(), rng.next()), UV: [2]float64{rng.rangeF(-1, 1), rng.next()}, Color: col()}
	}
	for i := 0; i < 60; i++ {
		p.triangle(vert(3), vert(3), vert(3))
	}
	for i := 0; i < 20; i++ {
		strip := make([]Vertex, 8)
		for j := range strip {
			strip[j] = vert(2.5)
		}
		p.strip(strip)
	}
	// ribbon builds a strip the way sos does: pairs of vertices either
	// side of a polyline from a, in steps of d, half apart.
	ribbon := func(a, d, half vec.V3, n int) []Vertex {
		strip := make([]Vertex, 0, 2*n)
		for j := 0; j < n; j++ {
			pt := a.Add(d.Scale(float64(j)))
			c := col()
			strip = append(strip,
				Vertex{Pos: pt.Sub(half), N: half.Norm(), UV: [2]float64{-1, rng.next()}, Color: c},
				Vertex{Pos: pt.Add(half), N: half.Norm(), UV: [2]float64{+1, rng.next()}, Color: c})
		}
		return strip
	}
	// Long sub-pixel strips, the field-line workload: a pixel is about
	// 0.036 world units at the target, the strips are half a pixel wide
	// and step a pixel and a half, so a triangle covers about one pixel
	// centre or none and every vertex is shared by three triangles.
	for i := 0; i < 12; i++ {
		a := vec.New(rng.rangeF(-2.5, 0), rng.rangeF(-2, 2), rng.rangeF(-1, 1))
		d := vec.New(rng.rangeF(0.03, 0.05), rng.rangeF(-0.02, 0.02), rng.rangeF(-0.01, 0.01))
		p.strip(ribbon(a, d, vec.New(0, 0.01, 0), 60))
	}
	// Strips that run through the near plane (z = 4.9) to behind the
	// eye: their triangles are clipped with one and with two vertices
	// behind the plane — the overflow path — and the last are culled.
	for i := 0; i < 3; i++ {
		a := vec.New(rng.rangeF(-0.3, 0.3), rng.rangeF(-0.3, 0.3), 3.5)
		p.strip(ribbon(a, vec.New(0.01, 0.005, 0.13), vec.New(0.04, 0.02, 0), 16))
	}
	// A strip with repeated vertices: zero-area triangles (two corners
	// coincide) in the middle of live ones.
	degenerate := ribbon(vec.New(-1, -1, 0), vec.New(0.2, 0.1, 0), vec.New(0, 0.15, 0), 8)
	degenerate[5], degenerate[6] = degenerate[4], degenerate[4]
	degenerate[11] = degenerate[10]
	p.strip(degenerate)
}

// ResetStats zeroes the primitive counters.
func (r *Rasterizer) ResetStats() {
	r.FragmentCount, r.TriangleCount, r.PointCount, r.LineCount = 0, 0, 0, 0
}

// DrawTriangleStrip draws vertices as a strip: (0,1,2), (1,2,3), ...
// with alternating winding — the exact primitive self-orienting
// surfaces are built from.
func (r *Rasterizer) DrawTriangleStrip(verts []Vertex) {
	for i := 0; i+2 < len(verts); i++ {
		if i%2 == 0 {
			r.DrawTriangle(verts[i], verts[i+1], verts[i+2])
		} else {
			r.DrawTriangle(verts[i+1], verts[i], verts[i+2])
		}
	}
}

// TriangleStrip submits a strip with the same alternating winding as
// DrawTriangleStrip: (0,1,2), (2,1,3), (2,3,4), ...
func (b *Batch) TriangleStrip(verts []Vertex) {
	base := len(b.verts)
	b.verts = append(b.verts, verts...)
	b.stripTriangles(base, len(verts))
}

type immediatePainter struct{ r *Rasterizer }

func (p immediatePainter) point(pt vec.V3, radius float64, c hybrid.RGBA) {
	p.r.DrawPoint(pt, radius, c)
}
func (p immediatePainter) line(p0, p1 vec.V3, w float64, c0, c1 hybrid.RGBA) {
	p.r.DrawLine(p0, p1, w, c0, c1)
}
func (p immediatePainter) triangle(v0, v1, v2 Vertex) { p.r.DrawTriangle(v0, v1, v2) }
func (p immediatePainter) strip(verts []Vertex)       { p.r.DrawTriangleStrip(verts) }

// batchPainter submits lines and triangles to a Batch and each run of
// points to DrawPointBatch, emptying the other queue first so that the
// draw order is the submission order.
type batchPainter struct {
	b   *Batch
	pts []PointSplat
}

func newBatchPainter(r *Rasterizer) *batchPainter { return &batchPainter{b: r.NewBatch()} }

func (p *batchPainter) point(pt vec.V3, radius float64, c hybrid.RGBA) {
	p.b.Flush()
	p.pts = append(p.pts, PointSplat{Pos: pt, Radius: radius, Color: c})
}
func (p *batchPainter) drawPoints() {
	if len(p.pts) > 0 {
		p.b.r.DrawPointBatch(p.pts)
		p.pts = p.pts[:0]
	}
}
func (p *batchPainter) line(p0, p1 vec.V3, w float64, c0, c1 hybrid.RGBA) {
	p.drawPoints()
	p.b.Line(p0, p1, w, c0, c1)
}
func (p *batchPainter) triangle(v0, v1, v2 Vertex) {
	p.drawPoints()
	p.b.Triangle(v0, v1, v2)
}
func (p *batchPainter) strip(verts []Vertex) {
	p.drawPoints()
	p.b.TriangleStrip(verts)
}

// flush draws everything submitted.
func (p *batchPainter) flush() {
	p.drawPoints()
	p.b.Flush()
}

func framebuffersEqual(t *testing.T, label string, a, b *Framebuffer) {
	t.Helper()
	for i := range a.Color {
		if a.Color[i] != b.Color[i] {
			t.Fatalf("%s: color[%d] = %v, serial %v", label, i, b.Color[i], a.Color[i])
		}
	}
	for i := range a.Depth {
		if a.Depth[i] != b.Depth[i] {
			t.Fatalf("%s: depth[%d] = %v, serial %v", label, i, b.Depth[i], a.Depth[i])
		}
	}
}

// configureMode applies one of the blend/shade configurations the
// determinism sweep covers.
func configureMode(r *Rasterizer, mode string) {
	switch mode {
	case "opaque":
		// NewRasterizer defaults.
	case "alpha":
		r.Mode = BlendAlpha
		r.DepthWrite = false
	case "additive-shaded":
		r.Mode = BlendAdditive
		r.DepthTest = false
		r.DepthWrite = false
		lights := []Light{{Dir: vec.New(0.3, 0.8, 0.6).Norm(), Color: hybrid.RGBA{R: 1, G: 1, B: 1, A: 1}, Intensity: 1}}
		r.Shade = PhongShader(lights, DefaultPhong())
	}
}

// TestBatchMatchesSerialBitIdentical is the tentpole's determinism
// guarantee: the tile-binned parallel backend must reproduce the
// serial immediate-mode image bit for bit at every worker count, for
// every blend mode, including the primitive stats.
func TestBatchMatchesSerialBitIdentical(t *testing.T) {
	const w, h = 193, 161 // deliberately not tile-aligned
	cam, err := NewCamera(vec.New(0, 0, 5), vec.New(0, 0, 0), vec.New(0, 1, 0), math.Pi/3, float64(w)/float64(h), 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"opaque", "alpha", "additive-shaded"} {
		fbSerial, _ := NewFramebuffer(w, h)
		serial := NewRasterizer(fbSerial, cam)
		configureMode(serial, mode)
		paintScene(immediatePainter{serial})

		for _, workers := range []int{1, 2, 4, 8} {
			fb, _ := NewFramebuffer(w, h)
			rast := NewRasterizer(fb, cam)
			configureMode(rast, mode)
			rast.Workers = workers
			bp := newBatchPainter(rast)
			paintScene(bp)
			bp.flush()

			label := fmt.Sprintf("%s/workers=%d", mode, workers)
			framebuffersEqual(t, label, fbSerial, fb)
			if rast.FragmentCount != serial.FragmentCount ||
				rast.PointCount != serial.PointCount ||
				rast.LineCount != serial.LineCount ||
				rast.TriangleCount != serial.TriangleCount {
				t.Errorf("%s: stats (f=%d p=%d l=%d t=%d) != serial (f=%d p=%d l=%d t=%d)",
					label,
					rast.FragmentCount, rast.PointCount, rast.LineCount, rast.TriangleCount,
					serial.FragmentCount, serial.PointCount, serial.LineCount, serial.TriangleCount)
			}
		}
	}
}

// TestBatchEntryPointsMatchImmediate covers the typed batch entry
// points (as opposed to the mixed Batch) against their immediate
// equivalents.
func TestBatchEntryPointsMatchImmediate(t *testing.T) {
	const w, h = 96, 96
	cam, err := NewCamera(vec.New(0, 0, 5), vec.New(0, 0, 0), vec.New(0, 1, 0), math.Pi/3, 1, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	rng := lcg(7)
	splats := make([]PointSplat, 300)
	for i := range splats {
		splats[i] = PointSplat{
			Pos:    vec.New(rng.rangeF(-2, 2), rng.rangeF(-2, 2), rng.rangeF(-2, 2)),
			Radius: rng.rangeF(0.5, 4),
			Color:  hybrid.RGBA{R: rng.next(), G: rng.next(), B: rng.next(), A: 1},
		}
	}
	fbA, _ := NewFramebuffer(w, h)
	ra := NewRasterizer(fbA, cam)
	for _, s := range splats {
		ra.DrawPoint(s.Pos, s.Radius, s.Color)
	}
	fbB, _ := NewFramebuffer(w, h)
	rb := NewRasterizer(fbB, cam)
	rb.Workers = 4
	rb.DrawPointBatch(splats)
	framebuffersEqual(t, "DrawPointBatch", fbA, fbB)

	segs := make([]LineSeg, 80)
	for i := range segs {
		segs[i] = LineSeg{
			P0:    vec.New(rng.rangeF(-2, 2), rng.rangeF(-2, 2), rng.rangeF(-2, 2)),
			P1:    vec.New(rng.rangeF(-2, 2), rng.rangeF(-2, 2), rng.rangeF(-2, 2)),
			Width: 1 + 3*rng.next(),
			C0:    hybrid.RGBA{R: 1, A: 1}, C1: hybrid.RGBA{B: 1, A: 1},
		}
	}
	fbC, _ := NewFramebuffer(w, h)
	rc := NewRasterizer(fbC, cam)
	for _, s := range segs {
		rc.DrawLine(s.P0, s.P1, s.Width, s.C0, s.C1)
	}
	fbD, _ := NewFramebuffer(w, h)
	rd := NewRasterizer(fbD, cam)
	rd.Workers = 3
	rd.DrawLineBatch(segs)
	framebuffersEqual(t, "DrawLineBatch", fbC, fbD)
	if rc.FragmentCount != rd.FragmentCount || rc.LineCount != rd.LineCount {
		t.Errorf("line stats: serial f=%d l=%d, batch f=%d l=%d",
			rc.FragmentCount, rc.LineCount, rd.FragmentCount, rd.LineCount)
	}
}

// TestSmallFlushAfterLargeCountsExactly: flush scratch is reused with
// whatever the previous flush left in it, and a flush of n primitives
// on w workers runs fewer than w setup chunks when ceil(n/w) chunks of
// that size already cover n (5 on 4 workers runs 3, 49 on 8 runs 7).
// The primitive counters of a small batch flushed after a large one
// must still equal the serial ones.
func TestSmallFlushAfterLargeCountsExactly(t *testing.T) {
	const w, h = 96, 96
	cam, err := NewCamera(vec.New(0, 0, 5), vec.New(0, 0, 0), vec.New(0, 1, 0), math.Pi/3, 1, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	rng := lcg(11)
	paint := func(p scenePainter, n int) {
		for i := 0; i < n; i++ {
			a := vec.New(rng.rangeF(-2, 2), rng.rangeF(-2, 2), rng.rangeF(-1, 1))
			c := hybrid.RGBA{R: rng.next(), G: rng.next(), B: rng.next(), A: 1}
			switch i % 3 {
			case 0:
				p.triangle(
					Vertex{Pos: a, Color: c},
					Vertex{Pos: a.Add(vec.New(0.3, 0, 0)), Color: c},
					Vertex{Pos: a.Add(vec.New(0, 0.3, 0)), Color: c})
			case 1:
				p.line(a, a.Add(vec.New(0, 0.3, 0)), 3, c, c)
			case 2:
				p.line(a, a.Add(vec.New(0.4, 0.2, 0)), 1, c, c)
			}
		}
	}
	for _, tc := range []struct{ workers, small int }{{4, 5}, {8, 49}, {3, 4}} {
		seed := rng
		fbSerial, _ := NewFramebuffer(w, h)
		serial := NewRasterizer(fbSerial, cam)
		paint(immediatePainter{serial}, 3000)
		serial.ResetStats()
		paint(immediatePainter{serial}, tc.small)

		rng = seed
		fb, _ := NewFramebuffer(w, h)
		rast := NewRasterizer(fb, cam)
		rast.Workers = tc.workers
		bp := newBatchPainter(rast)
		paint(bp, 3000)
		bp.flush()
		rast.ResetStats()
		paint(bp, tc.small)
		bp.flush()

		label := fmt.Sprintf("workers=%d/small=%d", tc.workers, tc.small)
		framebuffersEqual(t, label, fbSerial, fb)
		if rast.FragmentCount != serial.FragmentCount ||
			rast.PointCount != serial.PointCount ||
			rast.LineCount != serial.LineCount ||
			rast.TriangleCount != serial.TriangleCount {
			t.Errorf("%s: stats (f=%d p=%d l=%d t=%d) != serial (f=%d p=%d l=%d t=%d)",
				label,
				rast.FragmentCount, rast.PointCount, rast.LineCount, rast.TriangleCount,
				serial.FragmentCount, serial.PointCount, serial.LineCount, serial.TriangleCount)
		}
	}
}

// TestOITBatchMatchesSerialResolve: capturing transparent geometry
// through the OIT buffer from the batched tile path must fill the
// buffer identically to the serial capture — same resolved image,
// same fragment tally, same depth complexity.
func TestOITBatchMatchesSerialResolve(t *testing.T) {
	const w, h = 128, 96
	cam, err := NewCamera(vec.New(0, 0, 5), vec.New(0, 0, 0), vec.New(0, 1, 0), math.Pi/3, float64(w)/float64(h), 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	drawOpaque := func(r *Rasterizer) {
		// An opaque backdrop so capture-time depth testing is exercised.
		v := func(x, y, z float64) Vertex {
			return Vertex{Pos: vec.New(x, y, z), Color: hybrid.RGBA{R: 0.2, G: 0.2, B: 0.2, A: 1}}
		}
		r.DrawTriangle(v(-3, -3, -1), v(3, -3, -1), v(0, 1.5, -1))
	}

	run := func(workers int, batched bool) (*Framebuffer, *OITBuffer) {
		fb, _ := NewFramebuffer(w, h)
		rast := NewRasterizer(fb, cam)
		rast.Workers = workers
		drawOpaque(rast)
		oit := NewOITBuffer(w, h)
		restore := rast.AttachOIT(oit)
		rast.Mode = BlendAlpha
		if batched {
			bp := newBatchPainter(rast)
			paintScene(bp)
			bp.flush()
		} else {
			paintScene(immediatePainter{rast})
		}
		restore()
		oit.Workers = 1 // the existing single-threaded-equivalent resolve
		complexityBefore := oit.MaxDepthComplexity()
		if complexityBefore == 0 {
			t.Fatal("scene captured no transparent fragments")
		}
		oit.Resolve(fb)
		return fb, oit
	}

	fbSerial, oitSerial := run(1, false)
	for _, workers := range []int{1, 2, 4, 8} {
		fb, oit := run(workers, true)
		framebuffersEqual(t, fmt.Sprintf("oit/workers=%d", workers), fbSerial, fb)
		if oit.FragmentCount != oitSerial.FragmentCount {
			t.Errorf("workers=%d: OIT fragment count %d, serial %d", workers, oit.FragmentCount, oitSerial.FragmentCount)
		}
	}
}

// TestFragmentCountCullsOffscreen is the stats/cost-model fix: splat
// and line fragments falling outside the framebuffer must not count,
// and a splat whose disc misses the screen entirely does no fragment
// work at all (while still counting as a submitted point).
func TestFragmentCountCullsOffscreen(t *testing.T) {
	cam, err := NewCamera(vec.New(0, 0, 5), vec.New(0, 0, 0), vec.New(0, 1, 0), math.Pi/3, 1, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := NewFramebuffer(32, 32)
	r := NewRasterizer(fb, cam)

	// A splat whose disc is entirely off screen: counted, no fragments.
	r.DrawPoint(vec.New(50, 0, 0), 4, hybrid.RGBA{R: 1, A: 1})
	if r.PointCount != 1 || r.FragmentCount != 0 {
		t.Errorf("off-screen splat: points=%d fragments=%d, want 1/0", r.PointCount, r.FragmentCount)
	}

	// A splat centered on the screen edge: only the on-screen half
	// counts. The fragment count must equal the written-pixel count of
	// an additive pass (every emitted fragment lands on screen).
	r.ResetStats()
	r.Mode = BlendAdditive
	r.DepthTest, r.DepthWrite = false, false
	edge := vec.New(0, 0, 0)
	sx, _, _, _ := cam.WorldToScreen(edge, fb.W, fb.H)
	_ = sx
	r.DrawPoint(vec.New(3.05, 0, 0), 6, hybrid.RGBA{R: 1, A: 1}) // straddles the right edge
	if r.FragmentCount == 0 {
		t.Fatal("edge splat emitted nothing; expected a partial disc")
	}
	written := 0
	for y := 0; y < fb.H; y++ {
		for x := 0; x < fb.W; x++ {
			if fb.At(x, y).R > 0 {
				written++
			}
		}
	}
	if int64(written) != r.FragmentCount {
		t.Errorf("edge splat: %d fragments counted, %d pixels written", r.FragmentCount, written)
	}

	// A line running off screen counts only its visible fragments.
	r.ResetStats()
	fb.Clear(hybrid.RGBA{})
	r.DrawLine(vec.New(0, 0, 0), vec.New(100, 0, 0), 1, hybrid.RGBA{G: 1, A: 1}, hybrid.RGBA{G: 1, A: 1})
	if r.LineCount != 1 {
		t.Fatalf("line not drawn")
	}
	if r.FragmentCount == 0 || r.FragmentCount > int64(fb.W) {
		t.Errorf("clipped line counted %d fragments, want 1..%d", r.FragmentCount, fb.W)
	}
}

// TestGaussKernelTable sanity-checks the tabulated splat profile
// against the analytic falloff it replaces.
func TestGaussKernelTable(t *testing.T) {
	if gaussKernel[0] != 1 {
		t.Errorf("kernel center %v, want 1", gaussKernel[0])
	}
	for i := 1; i < len(gaussKernel); i++ {
		if gaussKernel[i] >= gaussKernel[i-1] {
			t.Fatalf("kernel not monotonically decreasing at %d", i)
		}
	}
	for _, u := range []float64{0, 0.25, 0.5, 1} {
		got := gaussKernel[int(u*kernelSteps)]
		want := math.Exp(-2 * u)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("kernel(%g) = %v, want %v", u, got, want)
		}
	}
}
