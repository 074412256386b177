package render

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/hybrid"
	"repro/internal/vec"
)

// benchSplats builds a deterministic cloud of n splats spread over the
// view volume with mixed radii — the RenderHybrid point-pass workload.
func benchSplats(n int) ([]splat, Camera) {
	cam, err := NewCamera(vec.New(0, 0, 6), vec.New(0, 0, 0), vec.New(0, 1, 0),
		math.Pi/3, 1, 0.1, 100)
	if err != nil {
		panic(err)
	}
	rng := lcg(42)
	splats := make([]splat, n)
	for i := range splats {
		splats[i] = splat{
			Pos:    vec.New(rng.rangeF(-2.5, 2.5), rng.rangeF(-2.5, 2.5), rng.rangeF(-2.5, 2.5)),
			Radius: rng.rangeF(1, 3),
			Color:  hybrid.RGBA{R: rng.next(), G: rng.next(), B: rng.next(), A: 1},
		}
	}
	return splats, cam
}

// BenchmarkRasterPoints measures the splat path — the rendering hot
// path of the hybrid viewer — on a cloud at 512². The fragment metric
// is the per-pixel work.
func BenchmarkRasterPoints(b *testing.B) {
	const size = 512
	for _, n := range []int{100_000, 1_000_000} {
		splats, cam := benchSplats(n)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			fb, _ := NewFramebuffer(size, size)
			b.ResetTimer()
			var frags int64
			for i := 0; i < b.N; i++ {
				fb.Clear(hybrid.RGBA{})
				r := NewRasterizer(fb, cam)
				drawSplats(r, splats)
				frags = r.FragmentCount
			}
			b.ReportMetric(float64(frags), "fragments")
		})
	}
}

// BenchmarkRasterTriangles measures the incremental edge-function fill
// on a strip-heavy scene (the SOS workload), immediate and batched; run
// with -cpu 1,2,4 for the batch's row bands.
func BenchmarkRasterTriangles(b *testing.B) {
	const size = 512
	cam, err := NewCamera(vec.New(0, 0, 6), vec.New(0, 0, 0), vec.New(0, 1, 0),
		math.Pi/3, 1, 0.1, 100)
	if err != nil {
		b.Fatal(err)
	}
	rng := lcg(7)
	strips := make([][]Vertex, 400)
	for i := range strips {
		strip := make([]Vertex, 64)
		x0, y0 := rng.rangeF(-2.5, 2), rng.rangeF(-2.5, 2.5)
		for j := range strip {
			strip[j] = Vertex{
				Pos:   vec.New(x0+float64(j/2)*0.07, y0+float64(j%2)*0.05, rng.rangeF(-1, 1)),
				N:     vec.New(0, 0, 1),
				Color: hybrid.RGBA{R: rng.next(), G: rng.next(), B: rng.next(), A: 1},
			}
		}
		strips[i] = strip
	}
	run := func(b *testing.B, batch bool) {
		b.ReportAllocs()
		fb, _ := NewFramebuffer(size, size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fb.Clear(hybrid.RGBA{})
			r := NewRasterizer(fb, cam)
			if batch {
				r.DrawTriangleStripBatch(strips)
			} else {
				for _, s := range strips {
					r.DrawTriangleStrip(s)
				}
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, false) })
	b.Run("batch", func(b *testing.B) { run(b, true) })

	// substrip is the field_stream frame: 1000 strips of 24 points, 46k
	// triangles at 384², each about half a pixel wide and a pixel and a
	// half long, so a triangle yields about one fragment and the cost is
	// set-up, not fill. Scratch comes from the package's free list, so
	// B/op is the same whenever the collector runs.
	b.Run("substrip", func(b *testing.B) {
		const size = 384
		rng := lcg(11)
		px := 2 * 6 * math.Tan(math.Pi/6) / size // world units per pixel at the target
		strips := make([][]Vertex, 1000)
		for i := range strips {
			strip := make([]Vertex, 48)
			x0, y0, z0 := rng.rangeF(-3, 2), rng.rangeF(-3, 3), rng.rangeF(-1, 1)
			for j := range strip {
				strip[j] = Vertex{
					Pos:   vec.New(x0+float64(j/2)*1.5*px, y0+float64(j%2)*0.5*px, z0),
					N:     vec.New(0, 1, 0),
					UV:    [2]float64{float64(j%2)*2 - 1, 0.5},
					Color: hybrid.RGBA{R: rng.next(), G: rng.next(), B: rng.next(), A: 1},
				}
			}
			strips[i] = strip
		}
		fb, _ := NewFramebuffer(size, size)
		b.ReportAllocs()
		b.ResetTimer()
		var tris, frags int64
		for i := 0; i < b.N; i++ {
			fb.Clear(hybrid.RGBA{})
			r := NewRasterizer(fb, cam)
			r.DrawTriangleStripBatch(strips)
			tris, frags = r.TriangleCount, r.FragmentCount
		}
		b.ReportMetric(float64(tris), "triangles")
		b.ReportMetric(float64(frags), "fragments")
	})
}
