package render

import (
	"fmt"
	"math"
	"runtime"
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

// splat is one point submission of a test cloud.
type splat struct {
	Pos    vec.V3
	Radius float64
	Color  hybrid.RGBA
}

// drawSplats draws the cloud with DrawPoint, in order.
func drawSplats(r *Rasterizer, splats []splat) {
	for _, s := range splats {
		r.DrawPoint(s.Pos, s.Radius, s.Color)
	}
}

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
	r.FragmentCount, r.TriangleCount, r.PointCount = 0, 0, 0
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

// batchPainter submits triangles to a Batch and draws each point and
// line with DrawPoint and DrawLine, flushing the batch first so that
// the draw order is the submission order.
type batchPainter struct{ b *Batch }

func newBatchPainter(r *Rasterizer) *batchPainter { return &batchPainter{b: r.NewBatch()} }

func (p *batchPainter) point(pt vec.V3, radius float64, c hybrid.RGBA) {
	p.b.Flush()
	p.b.r.DrawPoint(pt, radius, c)
}
func (p *batchPainter) line(p0, p1 vec.V3, w float64, c0, c1 hybrid.RGBA) {
	p.b.Flush()
	p.b.r.DrawLine(p0, p1, w, c0, c1)
}
func (p *batchPainter) triangle(v0, v1, v2 Vertex) { p.b.Triangle(v0, v1, v2) }
func (p *batchPainter) strip(verts []Vertex)       { p.b.TriangleStrip(verts) }

// flush draws everything submitted.
func (p *batchPainter) flush() { p.b.Flush() }

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

// TestBatchMatchesSerialBitIdentical is the batch's determinism
// guarantee: the row-band parallel backend must reproduce the serial
// immediate-mode image bit for bit at every core count, for every
// blend mode, including the primitive stats. At GOMAXPROCS 200 the 161
// rows are 161 one-row bands.
func TestBatchMatchesSerialBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const w, h = 193, 161 // rows split unevenly at most core counts
	cam, err := NewCamera(vec.New(0, 0, 5), vec.New(0, 0, 0), vec.New(0, 1, 0), math.Pi/3, float64(w)/float64(h), 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"opaque", "alpha", "additive-shaded"} {
		fbSerial, _ := NewFramebuffer(w, h)
		serial := NewRasterizer(fbSerial, cam)
		configureMode(serial, mode)
		paintScene(immediatePainter{serial})

		for _, procs := range []int{1, 2, 3, 4, 7, 8, 200} {
			runtime.GOMAXPROCS(procs)
			fb, _ := NewFramebuffer(w, h)
			rast := NewRasterizer(fb, cam)
			configureMode(rast, mode)
			bp := newBatchPainter(rast)
			paintScene(bp)
			bp.flush()

			label := fmt.Sprintf("%s/GOMAXPROCS=%d", mode, procs)
			framebuffersEqual(t, label, fbSerial, fb)
			if rast.FragmentCount != serial.FragmentCount ||
				rast.PointCount != serial.PointCount ||
				rast.TriangleCount != serial.TriangleCount {
				t.Errorf("%s: stats (f=%d p=%d t=%d) != serial (f=%d p=%d t=%d)",
					label,
					rast.FragmentCount, rast.PointCount, rast.TriangleCount,
					serial.FragmentCount, serial.PointCount, serial.TriangleCount)
			}
		}
	}
}

// TestSmallFlushAfterLargeCountsExactly: flush scratch is reused with
// whatever the previous flush left in it, and a flush of n triangles
// at GOMAXPROCS w runs fewer than w setup chunks when ceil(n/w) chunks
// of that size already cover n (2 at 4 runs 2, 17 at 8 runs 6).
// The primitive counters of a small batch flushed after a large one
// must still equal the serial ones. A paint submits its lines after
// its triangles, since drawing a line flushes the batch: the large
// paint is one flush of 1000 triangles.
func TestSmallFlushAfterLargeCountsExactly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const w, h = 96, 96
	cam, err := NewCamera(vec.New(0, 0, 5), vec.New(0, 0, 0), vec.New(0, 1, 0), math.Pi/3, 1, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	rng := lcg(11)
	paint := func(p scenePainter, n int) {
		var lines []func()
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
				lines = append(lines, func() { p.line(a, a.Add(vec.New(0, 0.3, 0)), 3, c, c) })
			case 2:
				lines = append(lines, func() { p.line(a, a.Add(vec.New(0.4, 0.2, 0)), 1, c, c) })
			}
		}
		for _, line := range lines {
			line()
		}
	}
	for _, tc := range []struct{ procs, small int }{{4, 5}, {8, 49}, {3, 4}} {
		runtime.GOMAXPROCS(tc.procs)
		seed := rng
		fbSerial, _ := NewFramebuffer(w, h)
		serial := NewRasterizer(fbSerial, cam)
		paint(immediatePainter{serial}, 3000)
		serial.ResetStats()
		paint(immediatePainter{serial}, tc.small)

		rng = seed
		fb, _ := NewFramebuffer(w, h)
		rast := NewRasterizer(fb, cam)
		bp := newBatchPainter(rast)
		paint(bp, 3000)
		bp.flush()
		rast.ResetStats()
		paint(bp, tc.small)
		bp.flush()

		label := fmt.Sprintf("GOMAXPROCS=%d/small=%d", tc.procs, tc.small)
		framebuffersEqual(t, label, fbSerial, fb)
		if rast.FragmentCount != serial.FragmentCount ||
			rast.PointCount != serial.PointCount ||
			rast.TriangleCount != serial.TriangleCount {
			t.Errorf("%s: stats (f=%d p=%d t=%d) != serial (f=%d p=%d t=%d)",
				label,
				rast.FragmentCount, rast.PointCount, rast.TriangleCount,
				serial.FragmentCount, serial.PointCount, serial.TriangleCount)
		}
	}
}

// TestTriangleFlushAllocates pins what a warm DrawTriangleStripBatchFunc
// allocates. The submission buffers and every flush array come from
// the package's free list, so what is left is the closures handed to
// par, the same four at every core count: the strip-fill closure of
// DrawTriangleStripBatchFunc, and Flush's vertex-transform, setup and
// row-band closures.
func TestTriangleFlushAllocates(t *testing.T) {
	cam, err := NewCamera(vec.New(0, 0, 6), vec.New(0, 0, 0), vec.New(0, 1, 0), math.Pi/3, 1, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	rng := lcg(7)
	strips := make([][]Vertex, 200)
	counts := make([]int, len(strips))
	for i := range strips {
		strip := make([]Vertex, 32)
		x0, y0 := rng.rangeF(-2.5, 2), rng.rangeF(-2.5, 2.5)
		for j := range strip {
			strip[j] = Vertex{
				Pos:   vec.New(x0+float64(j/2)*0.07, y0+float64(j%2)*0.05, rng.rangeF(-1, 1)),
				Color: hybrid.RGBA{R: rng.next(), G: rng.next(), B: rng.next(), A: 1},
			}
		}
		strips[i], counts[i] = strip, len(strip)
	}
	fill := func(k int, dst []Vertex) { copy(dst, strips[k]) }
	fb, _ := NewFramebuffer(128, 128)
	const want = 4
	for _, procs := range []int{1, 2, 8} {
		r := NewRasterizer(fb, cam)
		if n := mallocsPerRun(procs, 20, func() { r.DrawTriangleStripBatchFunc(counts, fill) }); n != want {
			t.Errorf("GOMAXPROCS=%d: %v allocations per flush, want %v", procs, n, want)
		}
		if r.FragmentCount == 0 {
			t.Fatal("scene drew nothing")
		}
	}
}

// mallocsPerRun is testing.AllocsPerRun at GOMAXPROCS procs: heap
// allocations per call of f, averaged over runs calls after one
// uncounted call. AllocsPerRun itself measures at GOMAXPROCS 1, where
// every par call is one chunk on the caller, so it cannot see an
// allocation made per chunk. It returns the least of three such
// averages: at a processor count above the machine's, a collection
// that falls among the runs can make the runtime allocate threads and
// goroutines of its own, which a round without one does not count.
func mallocsPerRun(procs, runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
	least := uint64(math.MaxUint64)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.Mallocs-before.Mallocs)/uint64(runs))
	}
	return float64(least)
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
