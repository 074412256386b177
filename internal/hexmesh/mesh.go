// Package hexmesh provides the unstructured hexahedral meshes that the
// electromagnetic solver and the field-line seeding strategy operate
// on — the mesh model of SLAC's Tau3P code (ref [16]), which solves the
// time-domain Maxwell equations "using unstructured hexahedral meshes".
//
// The meshes built here describe multi-cell linear-accelerator
// structures: a chain of pillbox-like cavity cells joined by a beam
// pipe, with rectangular waveguide ports on the side walls for power
// in/out (the "open structures" whose reflection and transmission the
// paper's simulations model, and whose port asymmetry Fig 9
// visualizes). Geometrically they are voxelizations — structured
// hexahedra are a special case of unstructured ones — but the package
// stores full element connectivity, volumes and adjacency so every
// algorithm downstream (seeding, integration, storage accounting)
// works exactly as it would on a general Tau3P mesh.
package hexmesh

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// Element is one hexahedral cell of the mesh.
type Element struct {
	// Index triple of the cell in the generating lattice.
	I, J, K int
	// Center and per-axis half-sizes; elements are axis-aligned boxes.
	Center vec.V3
	Half   vec.V3
}

// Volume returns the element volume.
func (e *Element) Volume() float64 { return 8 * e.Half.X * e.Half.Y * e.Half.Z }

// Mesh is an unstructured hexahedral mesh: a set of elements with a
// uniform-lattice spatial index for point location. Elements exist
// only where the accelerator structure is hollow (vacuum); the
// surrounding conductor is simply absent from the element list.
type Mesh struct {
	Bounds     vec.AABB
	Nx, Ny, Nz int     // generating lattice resolution
	Dx, Dy, Dz float64 // lattice spacing

	Elements []Element
	// index maps lattice cell -> element index + 1 (0 = no element).
	index []int32
}

// cellIndex returns the lattice index for (i, j, k).
func (m *Mesh) cellIndex(i, j, k int) int { return (k*m.Ny+j)*m.Nx + i }

// ElementIndexAt is like ElementAt but returns the element's index in
// Elements, or -1.
func (m *Mesh) ElementIndexAt(i, j, k int) int {
	if i < 0 || i >= m.Nx || j < 0 || j >= m.Ny || k < 0 || k >= m.Nz {
		return -1
	}
	return int(m.index[m.cellIndex(i, j, k)]) - 1
}

// Locate returns the index of the element containing world point p, or
// -1 when p is in conductor or outside the mesh.
func (m *Mesh) Locate(p vec.V3) int {
	if !m.Bounds.Contains(p) {
		return -1
	}
	i := int((p.X - m.Bounds.Min.X) / m.Dx)
	j := int((p.Y - m.Bounds.Min.Y) / m.Dy)
	k := int((p.Z - m.Bounds.Min.Z) / m.Dz)
	if i >= m.Nx {
		i = m.Nx - 1
	}
	if j >= m.Ny {
		j = m.Ny - 1
	}
	if k >= m.Nz {
		k = m.Nz - 1
	}
	return m.ElementIndexAt(i, j, k)
}

// Inside reports whether p lies in the vacuum region.
func (m *Mesh) Inside(p vec.V3) bool { return m.Locate(p) >= 0 }

// NumElements returns the element count — the "millions of mesh
// elements" scale figure the paper quotes for the 12-cell structure.
func (m *Mesh) NumElements() int { return len(m.Elements) }

// MinSpacing returns the smallest lattice spacing, which drives the
// Courant limit of the field solver.
func (m *Mesh) MinSpacing() float64 {
	return math.Min(m.Dx, math.Min(m.Dy, m.Dz))
}

// BuildBox meshes a solid rectangular vacuum region — no conductor at
// all. It is used by tests and by synthetic-field experiments that
// need a mesh without cavity geometry.
func BuildBox(bounds vec.AABB, nx, ny, nz int) (*Mesh, error) {
	return buildFromMask(bounds, nx, ny, nz, func(i, j, k int) bool { return true })
}

// RandomPointIn returns a deterministic pseudo-random point inside
// element e, mixing the provided 64-bit state with a splitmix step.
// Seeding uses it to "pick a random seed point within that element".
func (m *Mesh) RandomPointIn(e int, state *uint64) vec.V3 {
	next := func() float64 {
		*state += 0x9e3779b97f4a7c15
		z := *state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / (1 << 53)
	}
	el := &m.Elements[e]
	return vec.New(
		el.Center.X+(next()*2-1)*el.Half.X,
		el.Center.Y+(next()*2-1)*el.Half.Y,
		el.Center.Z+(next()*2-1)*el.Half.Z,
	)
}

// buildFromMask constructs the mesh from a voxel occupancy mask.
func buildFromMask(bounds vec.AABB, nx, ny, nz int, inside func(i, j, k int) bool) (*Mesh, error) {
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("hexmesh: resolution %dx%dx%d invalid", nx, ny, nz)
	}
	size := bounds.Size()
	m := &Mesh{
		Bounds: bounds,
		Nx:     nx, Ny: ny, Nz: nz,
		Dx: size.X / float64(nx),
		Dy: size.Y / float64(ny),
		Dz: size.Z / float64(nz),
	}
	m.index = make([]int32, nx*ny*nz)
	half := vec.New(m.Dx/2, m.Dy/2, m.Dz/2)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				if !inside(i, j, k) {
					continue
				}
				center := vec.New(
					bounds.Min.X+(float64(i)+0.5)*m.Dx,
					bounds.Min.Y+(float64(j)+0.5)*m.Dy,
					bounds.Min.Z+(float64(k)+0.5)*m.Dz,
				)
				m.Elements = append(m.Elements, Element{I: i, J: j, K: k, Center: center, Half: half})
				m.index[m.cellIndex(i, j, k)] = int32(len(m.Elements))
			}
		}
	}
	if len(m.Elements) == 0 {
		return nil, fmt.Errorf("hexmesh: geometry produced an empty mesh")
	}
	return m, nil
}
