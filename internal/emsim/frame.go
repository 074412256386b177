package emsim

import (
	"math"

	"repro/internal/hexmesh"
	"repro/internal/vec"
)

// FieldFrame is one time step of cell-centered electric and magnetic
// fields over the mesh, as Sim.Snapshot returns it — the data product
// the field-line visualization
// pipeline consumes, and the unit of the paper's storage arithmetic
// ("it would take about 80 megabytes of storage space to save one time
// step of the electric and magnetic fields together" for 1.6M
// elements: 1.6e6 elements x 2 vectors x 3 doubles x 8 bytes = 76.8MB).
type FieldFrame struct {
	Mesh *hexmesh.Mesh
	E    []vec.V3 // per element, cell-centered
	B    []vec.V3
	Step int
	Time float64

	// cells is the solver's padded lattice → element index + 1 table
	// (read-only, shared by every snapshot of one Sim).
	cells []int32
}

// Snapshot averages the staggered Yee components to element centers
// and returns a frame decoupled from further stepping.
func (s *Sim) Snapshot() *FieldFrame {
	m := s.Mesh
	f := &FieldFrame{
		Mesh: m,
		E:    make([]vec.V3, m.NumElements()),
		B:    make([]vec.V3, m.NumElements()),
		Step: s.step,
		Time: s.time,

		cells: s.cells,
	}
	for e := range m.Elements {
		el := &m.Elements[e]
		i, j, k := el.I, el.J, el.K
		ex := (s.ex[s.iEx(i, j, k)] + s.ex[s.iEx(i, j+1, k)] +
			s.ex[s.iEx(i, j, k+1)] + s.ex[s.iEx(i, j+1, k+1)]) / 4
		ey := (s.ey[s.iEy(i, j, k)] + s.ey[s.iEy(i+1, j, k)] +
			s.ey[s.iEy(i, j, k+1)] + s.ey[s.iEy(i+1, j, k+1)]) / 4
		ez := (s.ez[s.iEz(i, j, k)] + s.ez[s.iEz(i+1, j, k)] +
			s.ez[s.iEz(i, j+1, k)] + s.ez[s.iEz(i+1, j+1, k)]) / 4
		bx := (s.hx[s.iHx(i, j, k)] + s.hx[s.iHx(i+1, j, k)]) / 2
		by := (s.hy[s.iHy(i, j, k)] + s.hy[s.iHy(i, j+1, k)]) / 2
		bz := (s.hz[s.iHz(i, j, k)] + s.hz[s.iHz(i, j, k+1)]) / 2
		f.E[e] = vec.New(ex, ey, ez)
		f.B[e] = vec.New(bx, by, bz)
	}
	return f
}

// RawBytes returns the storage cost of this frame in the paper's
// accounting: both vector fields in double precision per element.
func (f *FieldFrame) RawBytes() int64 {
	return int64(f.Mesh.NumElements()) * (3 + 3) * 8
}

// sampleField trilinearly interpolates a cell-centered vector field at
// world point p. Conductor cells contribute zero, which correctly
// drives the interpolated tangential field toward zero at walls.
func (f *FieldFrame) sampleField(field []vec.V3, p vec.V3) vec.V3 {
	m := f.Mesh
	if !m.Bounds.Contains(p) {
		return vec.V3{}
	}
	fx := (p.X-m.Bounds.Min.X)/m.Dx - 0.5
	fy := (p.Y-m.Bounds.Min.Y)/m.Dy - 0.5
	fz := (p.Z-m.Bounds.Min.Z)/m.Dz - 0.5
	i0 := int(math.Floor(fx))
	j0 := int(math.Floor(fy))
	k0 := int(math.Floor(fz))
	tx := fx - float64(i0)
	ty := fy - float64(j0)
	tz := fz - float64(k0)
	// The eight corners (i0..i0+1, j0..j0+1, k0..k0+1) are read from the
	// padded cell table, where a corner one cell outside the lattice is
	// conductor like any other: one range test and one base index serve
	// all eight. A base corner further out has every corner outside.
	nx, ny, nz := m.Nx, m.Ny, m.Nz
	if uint(i0+1) > uint(nx) || uint(j0+1) > uint(ny) || uint(k0+1) > uint(nz) {
		return vec.V3{}
	}
	px, py := nx+2, ny+2
	base := ((k0+1)*py+j0+1)*px + i0 + 1
	var acc vec.V3
	for dk := 0; dk < 2; dk++ {
		wz := tz
		if dk == 0 {
			wz = 1 - tz
		}
		for dj := 0; dj < 2; dj++ {
			wy := ty
			if dj == 0 {
				wy = 1 - ty
			}
			row := f.cells[base+(dk*py+dj)*px:][:2]
			for di := 0; di < 2; di++ {
				wx := tx
				if di == 0 {
					wx = 1 - tx
				}
				e := row[di]
				if e == 0 {
					continue // conductor contributes zero
				}
				acc = acc.Add(field[e-1].Scale(wx * wy * wz))
			}
		}
	}
	return acc
}

// SampleE returns the interpolated electric field at p.
func (f *FieldFrame) SampleE(p vec.V3) vec.V3 { return f.sampleField(f.E, p) }

// SampleB returns the interpolated magnetic field at p.
func (f *FieldFrame) SampleB(p vec.V3) vec.V3 { return f.sampleField(f.B, p) }

// MaxE returns the largest electric field magnitude over the mesh.
func (f *FieldFrame) MaxE() float64 {
	var m float64
	for _, e := range f.E {
		if l := e.Len(); l > m {
			m = l
		}
	}
	return m
}

// ElementEMagnitude returns |E| at element index e.
func (f *FieldFrame) ElementEMagnitude(e int) float64 { return f.E[e].Len() }

// TransverseAsymmetry quantifies the up/down field asymmetry that the
// Fig 9 port geometry induces: it compares |E| integrated over the
// upper (y > 0) and lower (y < 0) halves of the structure and returns
// |upper-lower| / (upper+lower). A perfectly symmetric structure gives
// 0.
func (f *FieldFrame) TransverseAsymmetry() float64 {
	var up, down float64
	for e := range f.Mesh.Elements {
		mag := f.E[e].Len()
		if f.Mesh.Elements[e].Center.Y > 0 {
			up += mag
		} else {
			down += mag
		}
	}
	if up+down == 0 {
		return 0
	}
	return math.Abs(up-down) / (up + down)
}
