// Package hybrid implements the paper's hybrid data representation
// (§2): a low-resolution density volume standing in for the dense beam
// core plus full-resolution raw points for the sparse halo, selected by
// a leaf-density threshold over the octree partitioning, with the two
// inverse-linked transfer functions of Fig 3 controlling how the two
// halves composite at view time.
//
// Extract reads a tree and keeps none of it: the halo points, their
// indices and densities are copies, so the tree may be retired (see
// package octree) as soon as Extract returns.
//
// The density deposit (Splat) has a fast path that is exact, not
// approximate. A point's eight trilinear weights are the same products
// in the same order whichever path computes them, the eight voxels of
// an interior point are distinct, and points are deposited in input
// order within a slab and slabs are summed in slab order — so every
// voxel receives the same float32 additions in the same sequence as
// under the fully guarded loop, which survives as the oracle of
// TestDepositMatchesReference.
package hybrid

import (
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/vec"
)

// Grid is a regular scalar volume — the "3-D texture" of the paper's
// texture-mapping-hardware rendering path. Values are stored in x-major
// order: index = (z*Ny + y)*Nx + x.
type Grid struct {
	Nx, Ny, Nz int
	Bounds     vec.AABB
	Data       []float32
}

// NewGrid allocates a zeroed grid with the given resolution over bounds.
func NewGrid(nx, ny, nz int, bounds vec.AABB) (*Grid, error) {
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("hybrid: grid resolution %dx%dx%d must be positive", nx, ny, nz)
	}
	if bounds.IsEmpty() {
		return nil, fmt.Errorf("hybrid: empty grid bounds")
	}
	return &Grid{
		Nx: nx, Ny: ny, Nz: nz,
		Bounds: bounds,
		Data:   make([]float32, nx*ny*nz),
	}, nil
}

// Len returns the voxel count.
func (g *Grid) Len() int { return g.Nx * g.Ny * g.Nz }

// At returns the voxel value at integer coordinates, clamping to the
// grid edge (texture clamp-to-edge semantics).
func (g *Grid) At(x, y, z int) float32 {
	x = clampInt(x, 0, g.Nx-1)
	y = clampInt(y, 0, g.Ny-1)
	z = clampInt(z, 0, g.Nz-1)
	return g.Data[(z*g.Ny+y)*g.Nx+x]
}

// Sampler samples one grid at many positions: the bounds, their extents
// and the resolution are read once. The grid must not be resized or
// re-bounded while a Sampler is in use.
type Sampler struct {
	g              *Grid
	min, max, size vec.V3
	nx, ny, nz     float64 // the resolution
}

// Sampler returns a sampler over the grid as it is now.
func (g *Grid) Sampler() Sampler {
	return Sampler{
		g:   g,
		min: g.Bounds.Min, max: g.Bounds.Max, size: g.Bounds.Size(),
		nx: float64(g.Nx), ny: float64(g.Ny), nz: float64(g.Nz),
	}
}

// Sample returns the trilinearly interpolated value at world position
// p, or 0 outside the bounds — the software equivalent of a hardware
// 3-D texture fetch. A sample at continuous voxel coordinate f along an
// axis reads voxels floor(f) and floor(f)+1, clamped to the
// grid; volren's brick mask is built on that footprint.
func (s *Sampler) Sample(p vec.V3) float64 {
	if !(p.X >= s.min.X && p.X <= s.max.X &&
		p.Y >= s.min.Y && p.Y <= s.max.Y &&
		p.Z >= s.min.Z && p.Z <= s.max.Z) {
		return 0
	}
	// AABB.Normalize: a flat axis maps to the middle of the grid. The
	// quotients stay divisions by the extent: a reciprocal multiply
	// rounds differently.
	nx, ny, nz := 0.5, 0.5, 0.5
	if s.size.X > 0 {
		nx = (p.X - s.min.X) / s.size.X
	}
	if s.size.Y > 0 {
		ny = (p.Y - s.min.Y) / s.size.Y
	}
	if s.size.Z > 0 {
		nz = (p.Z - s.min.Z) / s.size.Z
	}
	// Voxel centers sit at (i+0.5)/N; convert to continuous voxel coords.
	fx := nx*s.nx - 0.5
	fy := ny*s.ny - 0.5
	fz := nz*s.nz - 0.5
	x0 := int(math.Floor(fx))
	y0 := int(math.Floor(fy))
	z0 := int(math.Floor(fz))
	tx := fx - float64(x0)
	ty := fy - float64(y0)
	tz := fz - float64(z0)

	g := s.g
	var v000, v100, v010, v110, v001, v101, v011, v111 float32
	if x0 >= 0 && x0 < g.Nx-1 && y0 >= 0 && y0 < g.Ny-1 && z0 >= 0 && z0 < g.Nz-1 {
		// Interior: all eight voxels exist, so nothing is clamped.
		lo := g.Data[(z0*g.Ny+y0)*g.Nx+x0:]
		hi := lo[g.Ny*g.Nx:]
		v000, v100, v010, v110 = lo[0], lo[1], lo[g.Nx], lo[g.Nx+1]
		v001, v101, v011, v111 = hi[0], hi[1], hi[g.Nx], hi[g.Nx+1]
	} else {
		v000, v100 = g.At(x0, y0, z0), g.At(x0+1, y0, z0)
		v010, v110 = g.At(x0, y0+1, z0), g.At(x0+1, y0+1, z0)
		v001, v101 = g.At(x0, y0, z0+1), g.At(x0+1, y0, z0+1)
		v011, v111 = g.At(x0, y0+1, z0+1), g.At(x0+1, y0+1, z0+1)
	}
	c00 := float64(v000) + tx*(float64(v100)-float64(v000))
	c10 := float64(v010) + tx*(float64(v110)-float64(v010))
	c01 := float64(v001) + tx*(float64(v101)-float64(v001))
	c11 := float64(v011) + tx*(float64(v111)-float64(v011))
	c0 := c00 + ty*(c10-c00)
	c1 := c01 + ty*(c11-c01)
	return c0 + tz*(c1-c0)
}

// MaxValue returns the largest voxel value.
func (g *Grid) MaxValue() float32 {
	var m float32
	for _, v := range g.Data {
		if v > m {
			m = v
		}
	}
	return m
}

// Normalize rescales the grid so its maximum value is exactly 1 and
// returns the factor the data was divided by (0 for an all-zero grid,
// which is left unchanged). Division (rather than multiplication by the
// reciprocal) guarantees the max voxel lands exactly on 1 in float32.
func (g *Grid) Normalize() float32 {
	m := g.MaxValue()
	if m == 0 {
		return 0
	}
	for i := range g.Data {
		g.Data[i] /= m
	}
	return m
}

// SizeBytes returns the in-memory payload size of the grid, the number
// the paper's storage comparisons count for the volume part.
func (g *Grid) SizeBytes() int64 { return int64(g.Len()) * 4 }

// Splat deposits the given points onto a fresh nx*ny*nz grid over
// bounds using cloud-in-cell (trilinear) weighting, producing the point
// density volume that the hybrid representation renders for the dense
// core. The deposit runs in parallel over contiguous slabs of the
// points, slab 0 straight into the output grid and every other into a
// partial grid of its own, the partials added in slab order at the end —
// so it is deterministic regardless of scheduling, and 0 + x being x,
// the same sums as a partial for every slab.
func Splat(points []vec.V3, bounds vec.AABB, nx, ny, nz, workers int) (*Grid, error) {
	out, err := NewGrid(nx, ny, nz, bounds)
	if err != nil {
		return nil, err
	}
	out.splat(points, workers)
	return out, nil
}

// splat adds the points' deposit to g, whose voxels must all be zero.
func (g *Grid) splat(points []vec.V3, workers int) {
	if len(points) == 0 {
		return
	}
	if workers <= 0 {
		workers = par.Workers()
	}
	// Cap worker count so the partial-grid memory stays modest.
	const maxPartialBytes = 256 << 20
	if int64(workers)*g.SizeBytes() > maxPartialBytes {
		workers = int(maxPartialBytes / g.SizeBytes())
		if workers < 1 {
			workers = 1
		}
	}
	c := newCIC(g.Bounds, g.Nx, g.Ny, g.Nz)
	p := par.Chunks(len(points), workers)
	partials := make([][]float32, p.Count)
	par.ForChunks(len(points), workers, func(lo, hi int) {
		s := p.Index(lo)
		partials[s] = g.Data
		if s > 0 {
			partials[s] = make([]float32, g.Len())
		}
		c.deposit(points[lo:hi], partials[s])
	})
	for _, buf := range partials[1:] {
		for i, v := range buf {
			g.Data[i] += v
		}
	}
}

// cic is the cloud-in-cell deposit onto one grid, with everything that
// is the same for every point read once: the bounds and their extents
// (AABB.Contains and AABB.Normalize re-derive them per point), the
// resolution, and the interior limits. A point whose lower voxel
// (x0, y0, z0) has 0 <= x0 < ix, and so on for y and z, has all eight
// of its voxels inside the grid.
type cic struct {
	min, max, size vec.V3
	nx, ny, nz     int
	fnx, fny, fnz  float64
	ix, iy, iz     int
}

func newCIC(bounds vec.AABB, nx, ny, nz int) cic {
	return cic{
		min: bounds.Min, max: bounds.Max, size: bounds.Size(),
		nx: nx, ny: ny, nz: nz,
		fnx: float64(nx), fny: float64(ny), fnz: float64(nz),
		ix: nx - 1, iy: ny - 1, iz: nz - 1,
	}
}

// deposit adds each point's unit mass to the eight voxels surrounding
// it with trilinear weights. An interior point takes eight unguarded
// adds; the weights are the same products in the same order as the
// guarded loop's, and the eight voxels are distinct, so which path a
// point takes cannot be seen in the sums — the fast path is exact.
func (c *cic) deposit(points []vec.V3, data []float32) {
	nx, ny, nz := c.nx, c.ny, c.nz
	for _, p := range points {
		if !(p.X >= c.min.X && p.X <= c.max.X &&
			p.Y >= c.min.Y && p.Y <= c.max.Y &&
			p.Z >= c.min.Z && p.Z <= c.max.Z) {
			continue
		}
		// AABB.Normalize: a flat axis maps to the middle of the grid,
		// and the quotients stay divisions by the extent.
		ux, uy, uz := 0.5, 0.5, 0.5
		if c.size.X > 0 {
			ux = (p.X - c.min.X) / c.size.X
		}
		if c.size.Y > 0 {
			uy = (p.Y - c.min.Y) / c.size.Y
		}
		if c.size.Z > 0 {
			uz = (p.Z - c.min.Z) / c.size.Z
		}
		fx := ux*c.fnx - 0.5
		fy := uy*c.fny - 0.5
		fz := uz*c.fnz - 0.5
		x0 := int(math.Floor(fx))
		y0 := int(math.Floor(fy))
		z0 := int(math.Floor(fz))
		tx := fx - float64(x0)
		ty := fy - float64(y0)
		tz := fz - float64(z0)
		if uint(x0) < uint(c.ix) && uint(y0) < uint(c.iy) && uint(z0) < uint(c.iz) {
			sx, sy, sz := 1-tx, 1-ty, 1-tz
			lo := data[(z0*ny+y0)*nx+x0:]
			hi := lo[ny*nx:]
			lo[0] += float32(sx * sy * sz)
			lo[1] += float32(tx * sy * sz)
			lo[nx] += float32(sx * ty * sz)
			lo[nx+1] += float32(tx * ty * sz)
			hi[0] += float32(sx * sy * tz)
			hi[1] += float32(tx * sy * tz)
			hi[nx] += float32(sx * ty * tz)
			hi[nx+1] += float32(tx * ty * tz)
			continue
		}
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

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
