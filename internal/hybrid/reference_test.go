package hybrid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/par"
	"repro/internal/vec"
)

// refSplat is Splat as it was, a partial grid for every slab, kept
// verbatim. It deposits the given points onto a fresh nx*ny*nz grid over
// bounds using cloud-in-cell (trilinear) weighting, producing the point
// density volume that the hybrid representation renders for the dense
// core. The deposit runs in parallel with per-worker partial grids
// merged at the end, so it is deterministic regardless of scheduling.
func refSplat(points []vec.V3, bounds vec.AABB, nx, ny, nz, workers int) (*Grid, error) {
	out, err := NewGrid(nx, ny, nz, bounds)
	if err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return out, nil
	}
	if workers <= 0 {
		workers = par.Workers()
	}
	// Cap worker count so the partial-grid memory stays modest.
	const maxPartialBytes = 256 << 20
	if int64(workers)*out.SizeBytes() > maxPartialBytes {
		workers = int(maxPartialBytes / out.SizeBytes())
		if workers < 1 {
			workers = 1
		}
	}
	p := par.Chunks(len(points), workers)
	partials := make([][]float32, p.Count)
	par.ForChunks(len(points), workers, func(lo, hi int) {
		buf := make([]float32, out.Len())
		refDepositCIC(points[lo:hi], bounds, nx, ny, nz, buf)
		partials[p.Index(lo)] = buf
	})
	for _, buf := range partials {
		for i, v := range buf {
			out.Data[i] += v
		}
	}
	return out, nil
}

// normalize maps p from box coordinates to [0,1]^3, as this package's
// oracles did through vec.AABB.Normalize before the product code hoisted
// it. Degenerate axes map to 0.5 so flattened boxes (e.g. planar phase
// plots) stay renderable.
func normalize(b vec.AABB, p vec.V3) vec.V3 {
	s := b.Size()
	n := vec.V3{X: 0.5, Y: 0.5, Z: 0.5}
	if s.X > 0 {
		n.X = (p.X - b.Min.X) / s.X
	}
	if s.Y > 0 {
		n.Y = (p.Y - b.Min.Y) / s.Y
	}
	if s.Z > 0 {
		n.Z = (p.Z - b.Min.Z) / s.Z
	}
	return n
}

// refDepositCIC is depositCIC as it was — Contains, Normalize and some
// thirty range tests for every point — kept verbatim as the oracle of
// TestDepositMatchesReference. It adds each point's unit mass to the eight voxels
// surrounding it with trilinear weights.
func refDepositCIC(points []vec.V3, bounds vec.AABB, nx, ny, nz int, data []float32) {
	for _, p := range points {
		if !bounds.Contains(p) {
			continue
		}
		n := normalize(bounds, p)
		fx := n.X*float64(nx) - 0.5
		fy := n.Y*float64(ny) - 0.5
		fz := n.Z*float64(nz) - 0.5
		x0 := int(math.Floor(fx))
		y0 := int(math.Floor(fy))
		z0 := int(math.Floor(fz))
		tx := fx - float64(x0)
		ty := fy - float64(y0)
		tz := fz - float64(z0)
		for dz := 0; dz < 2; dz++ {
			z := z0 + dz
			if z < 0 || z >= nz {
				continue
			}
			wz := tz
			if dz == 0 {
				wz = 1 - tz
			}
			for dy := 0; dy < 2; dy++ {
				y := y0 + dy
				if y < 0 || y >= ny {
					continue
				}
				wy := ty
				if dy == 0 {
					wy = 1 - ty
				}
				for dx := 0; dx < 2; dx++ {
					x := x0 + dx
					if x < 0 || x >= nx {
						continue
					}
					wx := tx
					if dx == 0 {
						wx = 1 - tx
					}
					data[(z*ny+y)*nx+x] += float32(wx * wy * wz)
				}
			}
		}
	}
}

// depositPoints are the point sets of the differential test over the
// given bounds: a Gaussian cloud reaching past every face (so some
// points are outside), then points exactly on every face, edge and
// corner of the box and within half a voxel of them, where the guarded
// path must take over from the unguarded one.
func depositPoints(b vec.AABB, n int, seed int64) []vec.V3 {
	rng := rand.New(rand.NewSource(seed))
	c, s := b.Center(), b.Size()
	pts := make([]vec.V3, 0, n+27*9)
	for i := 0; i < n; i++ {
		pts = append(pts, vec.New(c.X+0.3*s.X*rng.NormFloat64(), c.Y+0.3*s.Y*rng.NormFloat64(), c.Z+0.3*s.Z*rng.NormFloat64()))
	}
	// The 27 combinations of {min, centre, max} per axis are the six
	// faces, twelve edges and eight corners (and the middle).
	at := func(lo, hi float64, k int) float64 { return []float64{lo, (lo + hi) / 2, hi}[k] }
	for k := 0; k < 27; k++ {
		p := vec.New(at(b.Min.X, b.Max.X, k%3), at(b.Min.Y, b.Max.Y, k/3%3), at(b.Min.Z, b.Max.Z, k/9))
		pts = append(pts, p)
		for j := 0; j < 8; j++ { // nudged inward by up to 0.6 voxel of a 16³ grid
			q := p.Add(c.Sub(p).Scale(rng.Float64() * 0.6 / 8))
			pts = append(pts, q)
		}
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

func gridDiff(got, want []float32) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d voxels, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Sprintf("voxel %d is %v, want %v", i, got[i], want[i])
		}
	}
	return ""
}

var depositBoxes = map[string]vec.AABB{
	"cube":      vec.Box(vec.New(-1, -1, -1), vec.New(1, 1, 1)),
	"oblong":    vec.Box(vec.New(0.5, -3, 10), vec.New(2.25, 4, 10.125)),
	"flat axis": vec.Box(vec.New(-1, 2, -1), vec.New(1, 2, 1)),
}

// TestDepositMatchesReference: the hoisted deposit and its unguarded
// interior path leave every voxel bit-identical to the reference, both
// deposited alone and through Splat, which must equal the reference's
// one-slab run.
func TestDepositMatchesReference(t *testing.T) {
	for name, b := range depositBoxes {
		for _, res := range [][3]int{{16, 16, 16}, {5, 9, 2}, {1, 4, 4}} {
			nx, ny, nz := res[0], res[1], res[2]
			pts := depositPoints(b, 20_000, int64(nx))
			want := make([]float32, nx*ny*nz)
			refDepositCIC(pts, b, nx, ny, nz, want)
			got := make([]float32, nx*ny*nz)
			c := newCIC(b, nx, ny, nz)
			c.deposit(pts, got)
			if d := gridDiff(got, want); d != "" {
				t.Errorf("%s %v: deposit: %s", name, res, d)
			}
			wantG, err := refSplat(pts, b, nx, ny, nz, 1)
			if err != nil {
				t.Fatal(err)
			}
			gotG, err := Splat(pts, b, nx, ny, nz)
			if err != nil {
				t.Fatal(err)
			}
			if d := gridDiff(gotG.Data, wantG.Data); d != "" {
				t.Errorf("%s %v: Splat: %s", name, res, d)
			}
		}
	}
}

// TestDepositMutantsFailDifferential seeds the deposit with the mistakes
// a rewrite of it could make and demands that the differential test
// reports each one.
func TestDepositMutantsFailDifferential(t *testing.T) {
	b := depositBoxes["cube"]
	const n = 16
	pts := depositPoints(b, 20_000, 1)
	want, err := refSplat(pts, b, n, n, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	mutants := []struct {
		name string
		run  func() []float32
	}{
		{"unmutated deposit", func() []float32 {
			g, _ := Splat(pts, b, n, n, n)
			return g.Data
		}},
		{"deposited into a grid that was not cleared", func() []float32 {
			data := make([]float32, n*n*n)
			data[n*n*n/2] = 1 // what a recycled grid would still hold
			c := newCIC(b, n, n, n)
			c.deposit(pts, data)
			return data
		}},
	}
	for axis, widen := range []func(*cic){
		func(c *cic) { c.ix++ }, func(c *cic) { c.iy++ }, func(c *cic) { c.iz++ },
	} {
		widen := widen
		mutants = append(mutants, struct {
			name string
			run  func() []float32
		}{fmt.Sprintf("the interior test off by one voxel along axis %d", axis), func() []float32 {
			c := newCIC(b, n, n, n)
			widen(&c)
			// Slack behind the grid, so a deposit past the last voxel is
			// a sum where zero should be and not a panic.
			data := make([]float32, n*n*n+n*n+n+1)
			c.deposit(pts, data)
			return data
		}})
	}
	wantOne := make([]float32, n*n*n+n*n+n+1)
	refDepositCIC(pts, b, n, n, n, wantOne[:n*n*n])
	for i, m := range mutants {
		ref := want.Data
		if i >= 2 {
			ref = wantOne
		}
		d := gridDiff(m.run(), ref)
		switch {
		case i == 0 && d != "":
			t.Errorf("%s: %s", m.name, d)
		case i > 0 && d == "":
			t.Errorf("mutant %q passed the differential test", m.name)
		case i > 0:
			t.Logf("mutant %q caught: %s", m.name, d)
		}
	}
}

// BenchmarkSplat times the density deposit of a benchmark-sized frame
// (200 000 points into 64³, tight bounds).
func BenchmarkSplat(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]vec.V3, 200_000)
	bounds := vec.Empty()
	for i := range pts {
		pts[i] = vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		bounds = bounds.ExtendPoint(pts[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Splat(pts, bounds, 64, 64, 64); err != nil {
			b.Fatal(err)
		}
	}
}
