package render

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/hybrid"
	"repro/internal/vec"
)

// benchSplats builds a deterministic cloud of n splats spread over the
// view volume with mixed radii — the RenderHybrid point-pass workload.
func benchSplats(n int) ([]PointSplat, Camera) {
	cam, err := NewCamera(vec.New(0, 0, 6), vec.New(0, 0, 0), vec.New(0, 1, 0),
		math.Pi/3, 1, 0.1, 100)
	if err != nil {
		panic(err)
	}
	rng := lcg(42)
	splats := make([]PointSplat, n)
	for i := range splats {
		splats[i] = PointSplat{
			Pos:    vec.New(rng.rangeF(-2.5, 2.5), rng.rangeF(-2.5, 2.5), rng.rangeF(-2.5, 2.5)),
			Radius: rng.rangeF(1, 3),
			Color:  hybrid.RGBA{R: rng.next(), G: rng.next(), B: rng.next(), A: 1},
		}
	}
	return splats, cam
}

// BenchmarkRasterPoints compares the serial immediate splat path with
// the tile-binned batched backend across worker counts — the rendering
// hot path of the hybrid viewer. The fragment metric verifies both
// paths do identical per-pixel work.
func BenchmarkRasterPoints(b *testing.B) {
	const size = 512
	for _, n := range []int{100_000, 1_000_000} {
		splats, cam := benchSplats(n)
		b.Run(fmt.Sprintf("N=%d/serial", n), func(b *testing.B) {
			b.ReportAllocs()
			fb, _ := NewFramebuffer(size, size)
			b.ResetTimer()
			var frags int64
			for i := 0; i < b.N; i++ {
				fb.Clear(hybrid.RGBA{})
				r := NewRasterizer(fb, cam)
				for _, s := range splats {
					r.DrawPoint(s.Pos, s.Radius, s.Color)
				}
				frags = r.FragmentCount
			}
			b.ReportMetric(float64(frags), "fragments")
		})
		workerCounts := []int{1, 2, 4}
		if ncpu := runtime.NumCPU(); ncpu > 4 {
			workerCounts = append(workerCounts, ncpu)
		}
		for _, w := range workerCounts {
			b.Run(fmt.Sprintf("N=%d/batch/workers=%d", n, w), func(b *testing.B) {
				b.ReportAllocs()
				fb, _ := NewFramebuffer(size, size)
				b.ResetTimer()
				var frags int64
				for i := 0; i < b.N; i++ {
					fb.Clear(hybrid.RGBA{})
					r := NewRasterizer(fb, cam)
					r.Workers = w
					r.DrawPointBatch(splats)
					frags = r.FragmentCount
				}
				b.ReportMetric(float64(frags), "fragments")
			})
		}
	}
}

// BenchmarkRasterTriangles measures the incremental edge-function fill
// against worker counts on a strip-heavy scene (the SOS workload).
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
	run := func(b *testing.B, workers int, batch bool) {
		b.ReportAllocs()
		fb, _ := NewFramebuffer(size, size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fb.Clear(hybrid.RGBA{})
			r := NewRasterizer(fb, cam)
			r.Workers = workers
			if batch {
				r.DrawTriangleStripBatch(strips)
			} else {
				for _, s := range strips {
					r.DrawTriangleStrip(s)
				}
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1, false) })
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("batch/workers=%d", w), func(b *testing.B) { run(b, w, true) })
	}

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
			r.Workers = 2
			r.DrawTriangleStripBatch(strips)
			tris, frags = r.TriangleCount, r.FragmentCount
		}
		b.ReportMetric(float64(tris), "triangles")
		b.ReportMetric(float64(frags), "fragments")
	})
}
