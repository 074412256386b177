// Package emsim is the time-domain electromagnetic field solver
// substrate — the stand-in for SLAC's Tau3P (ref [16]), the "parallel
// time domain electromagnetic field solver using unstructured
// hexahedral meshes" that produced the field data of §3.
//
// The solver is a Yee finite-difference time-domain (FDTD) scheme over
// the cavity mesh: electric field components live on cell edges,
// magnetic components on cell faces, and the perfectly conducting
// structure walls are imposed by zeroing tangential E on every edge
// touching conductor. Waveguide ports are driven with a ramped
// sinusoid across the port mouth and terminated with a first-order Mur
// absorbing boundary, so RF power enters through the input ports,
// rings the cells, and leaves through the output ports — the process
// Fig 8 animates.
//
// Units are normalized: c = epsilon0 = mu0 = 1. The Courant condition
// the paper highlights ("the simulations must not proceed faster than
// electromagnetic information could physically flow through mesh
// elements ... simulating 100 nanoseconds in the real world requires
// millions of time steps") appears here exactly as in Tau3P: the time
// step is bounded by the mesh spacing via CourantDT.
//
// # The step
//
// One leapfrog step is two parallel sweeps and a serial tail: all of H
// from E, a barrier, all of E from H, then the ports. Each sweep is
// chunked over k planes; inside a plane it walks (k, j) rows as
// sub-slices of the Yee arrays, so the inner loop over i carries no
// index arithmetic. The H sweep writes only H and reads only E, the E
// sweep the reverse, and every worker writes only its own planes.
//
// # Spans, and why skipping outside them is exact
//
// Most of the lattice is conductor (62 % of the 3-cell cavity at 16
// cells per radius). New derives from the mesh, once, the edge masks
// (an E edge is active only when all four cells around it are vacuum)
// and for every row of every component a span [lo, hi) of i, and the
// sweeps visit only the spans. An E row's span runs from its first to
// one past its last active edge; the per-edge mask test stays inside
// it. An H row's span is the hull of the spans of the four E rows its
// curl reads (shifted where the curl reads i+1). Nothing outside a
// span can ever change, so the fields are bit-identical to sweeping the
// whole lattice:
//
//   - the masks are fixed for the life of a Sim;
//   - the E sweep writes only active edges and applyPort writes ez only
//     where its mask is set, so E is exactly +0 on every inactive edge
//     forever;
//   - an H component outside its span has four inactive E edges around
//     it, so its curl is (0-0)/dy - (0-0)/dz = +0 and h -= dt*0 leaves
//     h — itself +0 since the start — untouched;
//   - inside the spans every expression keeps the shape of the full
//     sweep (divisions by the spacings, curl as its own value, then
//     h -= dt*curl or e += dt*curl).
//
// The full-lattice sweeps survive as the reference stepper of
// TestAdvanceMatchesReference, which compares all six arrays bit for
// bit and is itself checked against seeded span mutants.
package emsim

import (
	"fmt"
	"math"

	"repro/internal/hexmesh"
	"repro/internal/par"
)

// Config describes an FDTD run over a cavity mesh.
type Config struct {
	Mesh   *hexmesh.Mesh
	Cavity hexmesh.CavityConfig

	// Courant is the safety factor applied to the stability limit;
	// (0, 1). The default 0.5 keeps the Mur boundary comfortably stable.
	Courant float64
	// Freq is the angular drive frequency. 0 selects the pillbox TM010
	// estimate 2.405/CellRadius, which couples well into the cells.
	Freq float64
	// RampPeriods is how many drive periods the source amplitude takes
	// to ramp from 0 to full (a smooth turn-on avoids a broadband
	// transient).
	RampPeriods float64
	Workers     int
}

// DefaultConfig returns a configuration for the given mesh/cavity.
func DefaultConfig(m *hexmesh.Mesh, cav hexmesh.CavityConfig) Config {
	return Config{Mesh: m, Cavity: cav, Courant: 0.5, RampPeriods: 2}
}

// Sim is a running FDTD simulation. Field arrays follow the Yee
// staggering; use Snapshot to obtain cell-centered fields for
// visualization.
type Sim struct {
	Cfg  Config
	Mesh *hexmesh.Mesh

	nx, ny, nz int
	dt         float64
	omega      float64
	time       float64
	step       int

	// Yee arrays (sizes in the constructor).
	ex, ey, ez []float64
	hx, hy, hz []float64
	// Edge activity masks for E components (false = conductor edge).
	mx, my, mz []bool
	// Per-row i-spans the sweeps visit, one table per component, indexed
	// by the component's own row number (see the package doc).
	spEx, spEy, spEz []span
	spHx, spHy, spHz []span
	// cells maps the lattice, padded by one conductor cell on every
	// side, to element index + 1 (0 = conductor). Snapshots share it.
	cells []int32

	ports []portPlane

	// The sweeps as bound once in New: a method value built per step
	// would allocate on every ForChunks call.
	sweepH, sweepE func(kLo, kHi int)
}

// span is the half-open range [lo, hi) of i a sweep visits in one row;
// lo == hi means the row is skipped.
type span struct{ lo, hi int32 }

// rng returns the span as a start and a length.
func (sp span) rng() (lo, n int) { return int(sp.lo), int(sp.hi - sp.lo) }

// portPlane is one absorbing/driving port mouth at a j = const plane.
type portPlane struct {
	iLo, iHi, kLo, kHi, j int
	top                   bool // +y mouth (wave travels -y into the cavity)
	drive                 bool // input ports drive; all ports absorb
	// prev holds the previous-step Ex values on the two rows used by
	// the first-order Mur update.
	prevBoundary, prevInner []float64
}

// New builds the solver: allocates Yee arrays, computes the edge
// masks from the mesh and configures the ports.
func New(cfg Config) (*Sim, error) {
	if cfg.Mesh == nil {
		return nil, fmt.Errorf("emsim: nil mesh")
	}
	if cfg.Courant <= 0 || cfg.Courant >= 1 {
		return nil, fmt.Errorf("emsim: Courant factor %g outside (0,1)", cfg.Courant)
	}
	m := cfg.Mesh
	s := &Sim{Cfg: cfg, Mesh: m, nx: m.Nx, ny: m.Ny, nz: m.Nz}
	s.dt = cfg.Courant * s.CourantDT()
	s.omega = cfg.Freq
	if s.omega == 0 {
		s.omega = 2.405 / cfg.Cavity.CellRadius
	}

	nx, ny, nz := s.nx, s.ny, s.nz
	s.ex = make([]float64, nx*(ny+1)*(nz+1))
	s.ey = make([]float64, (nx+1)*ny*(nz+1))
	s.ez = make([]float64, (nx+1)*(ny+1)*nz)
	s.hx = make([]float64, (nx+1)*ny*nz)
	s.hy = make([]float64, nx*(ny+1)*nz)
	s.hz = make([]float64, nx*ny*(nz+1))
	s.mx = make([]bool, len(s.ex))
	s.my = make([]bool, len(s.ey))
	s.mz = make([]bool, len(s.ez))
	s.buildMasks()
	s.buildHSpans()
	s.buildPorts()
	s.sweepH, s.sweepE = s.updateH, s.updateE
	return s, nil
}

// CourantDT returns the stability limit dt_max = 1/(c sqrt(sum dx_i^-2))
// for the mesh — the paper's Courant condition.
func (s *Sim) CourantDT() float64 {
	m := s.Mesh
	return 1 / math.Sqrt(1/(m.Dx*m.Dx)+1/(m.Dy*m.Dy)+1/(m.Dz*m.Dz))
}

// DT returns the actual step used.
func (s *Sim) DT() float64 { return s.dt }

// Step returns the number of steps taken.
func (s *Sim) Step() int { return s.step }

// Index helpers for the staggered arrays.
func (s *Sim) iEx(i, j, k int) int { return (k*(s.ny+1)+j)*s.nx + i }
func (s *Sim) iEy(i, j, k int) int { return (k*s.ny+j)*(s.nx+1) + i }
func (s *Sim) iEz(i, j, k int) int { return (k*(s.ny+1)+j)*(s.nx+1) + i }
func (s *Sim) iHx(i, j, k int) int { return (k*s.ny+j)*(s.nx+1) + i }
func (s *Sim) iHy(i, j, k int) int { return (k*(s.ny+1)+j)*s.nx + i }
func (s *Sim) iHz(i, j, k int) int { return (k*s.ny+j)*s.nx + i }

// buildMasks marks E edges active only when every adjacent cell is
// vacuum — the staircase perfect-conductor boundary — and records each
// E row's span in the same pass. The four cells around an edge are
// read from the padded cell table, where out-of-range is conductor.
func (s *Sim) buildMasks() {
	nx, ny, nz := s.nx, s.ny, s.nz
	px, py := nx+2, ny+2
	s.cells = make([]int32, px*py*(nz+2))
	for e := range s.Mesh.Elements {
		el := &s.Mesh.Elements[e]
		s.cells[((el.K+1)*py+el.J+1)*px+el.I+1] = int32(e) + 1
	}
	// row returns padded cells (off .. off+n-1, j, k) of the lattice.
	row := func(off, j, k, n int) []int32 {
		b := ((k+1)*py+j+1)*px + off + 1
		return s.cells[b : b+n]
	}
	// maskRow fills one mask row from the four cell rows around it and
	// returns the row's span.
	maskRow := func(m []bool, a, b, c, d []int32) span {
		sp := span{}
		for i := range m {
			if a[i] != 0 && b[i] != 0 && c[i] != 0 && d[i] != 0 {
				m[i] = true
				if sp.hi == 0 {
					sp.lo = int32(i)
				}
				sp.hi = int32(i) + 1
			}
		}
		return sp
	}
	// Ex edge (i+1/2, j, k): cells (i, j-1..j, k-1..k).
	s.spEx = make([]span, (nz+1)*(ny+1))
	for k := 0; k <= nz; k++ {
		for j := 0; j <= ny; j++ {
			r := k*(ny+1) + j
			s.spEx[r] = maskRow(s.mx[r*nx:(r+1)*nx],
				row(0, j-1, k-1, nx), row(0, j, k-1, nx), row(0, j-1, k, nx), row(0, j, k, nx))
		}
	}
	// Ey edge (i, j+1/2, k): cells (i-1..i, j, k-1..k).
	s.spEy = make([]span, (nz+1)*ny)
	for k := 0; k <= nz; k++ {
		for j := 0; j < ny; j++ {
			r := k*ny + j
			s.spEy[r] = maskRow(s.my[r*(nx+1):(r+1)*(nx+1)],
				row(-1, j, k-1, nx+1), row(0, j, k-1, nx+1), row(-1, j, k, nx+1), row(0, j, k, nx+1))
		}
	}
	// Ez edge (i, j, k+1/2): cells (i-1..i, j-1..j, k).
	s.spEz = make([]span, nz*(ny+1))
	for k := 0; k < nz; k++ {
		for j := 0; j <= ny; j++ {
			r := k*(ny+1) + j
			s.spEz[r] = maskRow(s.mz[r*(nx+1):(r+1)*(nx+1)],
				row(-1, j-1, k, nx+1), row(0, j-1, k, nx+1), row(-1, j, k, nx+1), row(0, j, k, nx+1))
		}
	}
}

// hull returns the smallest span covering a and b; empty spans cover
// nothing.
func hull(a, b span) span {
	if a.lo == a.hi {
		return b
	}
	if b.lo == b.hi {
		return a
	}
	return span{min(a.lo, b.lo), max(a.hi, b.hi)}
}

// reach is the span of i whose curl reads i or i+1 inside a, clipped to
// a row of n: an H component between two edges is touched by either.
func reach(a span, n int) span {
	if a.lo == a.hi {
		return a
	}
	return span{max(a.lo-1, 0), min(a.hi, int32(n))}
}

// buildHSpans derives each H row's span as the hull of the spans of the
// four E rows its curl reads.
func (s *Sim) buildHSpans() {
	nx, ny, nz := s.nx, s.ny, s.nz
	// Hx(i, j, k) reads ez(i, j..j+1, k) and ey(i, j, k..k+1).
	s.spHx = make([]span, nz*ny)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			s.spHx[k*ny+j] = hull(
				hull(s.spEz[k*(ny+1)+j], s.spEz[k*(ny+1)+j+1]),
				hull(s.spEy[k*ny+j], s.spEy[(k+1)*ny+j]))
		}
	}
	// Hy(i, j, k) reads ex(i, j, k..k+1) and ez(i..i+1, j, k).
	s.spHy = make([]span, nz*(ny+1))
	for k := 0; k < nz; k++ {
		for j := 0; j <= ny; j++ {
			s.spHy[k*(ny+1)+j] = hull(
				hull(s.spEx[k*(ny+1)+j], s.spEx[(k+1)*(ny+1)+j]),
				reach(s.spEz[k*(ny+1)+j], nx))
		}
	}
	// Hz(i, j, k) reads ey(i..i+1, j, k) and ex(i, j..j+1, k).
	s.spHz = make([]span, (nz+1)*ny)
	for k := 0; k <= nz; k++ {
		for j := 0; j < ny; j++ {
			s.spHz[k*ny+j] = hull(
				reach(s.spEy[k*ny+j], nx),
				hull(s.spEx[k*(ny+1)+j], s.spEx[k*(ny+1)+j+1]))
		}
	}
}

// buildPorts configures the driving/absorbing planes from the cavity
// port specs.
func (s *Sim) buildPorts() {
	add := func(spec *hexmesh.PortSpec, top, drive bool) {
		iLo, iHi, kLo, kHi, j, ok := hexmesh.PortMouth(s.Mesh, s.Cfg.Cavity, spec, top)
		if !ok {
			return
		}
		n := (iHi - iLo + 1) * (kHi - kLo + 1)
		s.ports = append(s.ports, portPlane{
			iLo: iLo, iHi: iHi, kLo: kLo, kHi: kHi, j: j,
			top: top, drive: drive,
			prevBoundary: make([]float64, n),
			prevInner:    make([]float64, n),
		})
	}
	add(s.Cfg.Cavity.InputPort, true, true)
	add(s.Cfg.Cavity.InputPort, false, true)
	add(s.Cfg.Cavity.OutputPort, true, false)
	add(s.Cfg.Cavity.OutputPort, false, false)
}

// Advance runs n full leapfrog steps.
func (s *Sim) Advance(n int) {
	for i := 0; i < n; i++ {
		s.advanceOnce()
	}
}

// AdvancePeriods runs enough steps to cover n drive periods. A
// non-positive or non-finite n advances nothing.
func (s *Sim) AdvancePeriods(n float64) {
	if !(n > 0) || math.IsInf(n, 0) {
		return
	}
	period := 2 * math.Pi / s.omega
	steps := int(math.Ceil(n * period / s.dt))
	s.Advance(steps)
}

func (s *Sim) advanceOnce() {
	w := s.Cfg.Workers
	par.ForChunks(s.nz+1, w, s.sweepH)
	par.ForChunks(s.nz, w, s.sweepE)
	s.applyPorts()
	s.time += s.dt
	s.step++
}

// subCurl is one H row of the step: h -= dt * ((a1-a0)/da - (b1-b0)/db)
// over the first len(h) values of every slice. The divisions stay divisions and curl stays
// its own value: the reference stepper's expression, bit for bit.
func subCurl(h, a1, a0 []float64, da float64, b1, b0 []float64, db, dt float64) {
	a1, a0, b1, b0 = a1[:len(h)], a0[:len(h)], b1[:len(h)], b0[:len(h)]
	for i := range h {
		curl := (a1[i]-a0[i])/da - (b1[i]-b0[i])/db
		h[i] -= dt * curl
	}
}

// addCurl is one E row: e += dt * ((a1-a0)/da - (b1-b0)/db) on the
// edges whose mask is set.
func addCurl(e []float64, m []bool, a1, a0 []float64, da float64, b1, b0 []float64, db, dt float64) {
	m, a1, a0, b1, b0 = m[:len(e)], a1[:len(e)], a0[:len(e)], b1[:len(e)], b0[:len(e)]
	for i := range e {
		if !m[i] {
			continue
		}
		curl := (a1[i]-a0[i])/da - (b1[i]-b0[i])/db
		e[i] += dt * curl
	}
}

// updateH applies the curl-E update to the magnetic components of
// planes [kLo, kHi) of the nz+1 planes Hz has; Hx and Hy have nz.
func (s *Sim) updateH(kLo, kHi int) {
	nx, ny, nz := s.nx, s.ny, s.nz
	dx, dy, dz := s.Mesh.Dx, s.Mesh.Dy, s.Mesh.Dz
	dt := s.dt
	sx, sx1 := nx, nx+1 // row strides: ex/hy/hz rows hold nx values, ey/ez/hx rows nx+1
	for k := kLo; k < kHi; k++ {
		if k < nz {
			// Hx(i, j+1/2, k+1/2) -= dt * (dEz/dy - dEy/dz)
			for j := 0; j < ny; j++ {
				lo, n := s.spHx[k*ny+j].rng()
				if n == 0 {
					continue
				}
				b := (k*ny+j)*sx1 + lo      // hx(lo, j, k), and ey's
				bz := (k*(ny+1)+j)*sx1 + lo // ez(lo, j, k)
				subCurl(s.hx[b:][:n], s.ez[bz+sx1:], s.ez[bz:], dy, s.ey[b+ny*sx1:], s.ey[b:], dz, dt)
			}
			// Hy(i+1/2, j, k+1/2) -= dt * (dEx/dz - dEz/dx)
			for j := 0; j <= ny; j++ {
				lo, n := s.spHy[k*(ny+1)+j].rng()
				if n == 0 {
					continue
				}
				b := (k*(ny+1)+j)*sx + lo   // hy(lo, j, k), and ex's
				bz := (k*(ny+1)+j)*sx1 + lo // ez(lo, j, k)
				subCurl(s.hy[b:][:n], s.ex[b+(ny+1)*sx:], s.ex[b:], dz, s.ez[bz+1:], s.ez[bz:], dx, dt)
			}
		}
		// Hz(i+1/2, j+1/2, k) -= dt * (dEy/dx - dEx/dy)
		for j := 0; j < ny; j++ {
			lo, n := s.spHz[k*ny+j].rng()
			if n == 0 {
				continue
			}
			b := (k*ny+j)*sx + lo      // hz(lo, j, k)
			by := (k*ny+j)*sx1 + lo    // ey(lo, j, k)
			bx := (k*(ny+1)+j)*sx + lo // ex(lo, j, k)
			subCurl(s.hz[b:][:n], s.ey[by+1:], s.ey[by:], dx, s.ex[bx+sx:], s.ex[bx:], dy, dt)
		}
	}
}

// updateE applies the curl-H update to the active electric edges of
// planes [kLo, kHi) of the nz planes Ez has. Edges on the lattice faces
// are never active, so their rows have empty spans.
func (s *Sim) updateE(kLo, kHi int) {
	nx, ny := s.nx, s.ny
	dx, dy, dz := s.Mesh.Dx, s.Mesh.Dy, s.Mesh.Dz
	dt := s.dt
	sx, sx1 := nx, nx+1
	for k := kLo; k < kHi; k++ {
		if k > 0 {
			// Ex(i+1/2, j, k) += dt * (dHz/dy - dHy/dz)
			for j := 1; j < ny; j++ {
				lo, n := s.spEx[k*(ny+1)+j].rng()
				if n == 0 {
					continue
				}
				b := (k*(ny+1)+j)*sx + lo // ex(lo, j, k), and hy's
				bz := (k*ny+j)*sx + lo    // hz(lo, j, k)
				addCurl(s.ex[b:][:n], s.mx[b:], s.hz[bz:], s.hz[bz-sx:], dy, s.hy[b:], s.hy[b-(ny+1)*sx:], dz, dt)
			}
			// Ey(i, j+1/2, k) += dt * (dHx/dz - dHz/dx)
			for j := 0; j < ny; j++ {
				lo, n := s.spEy[k*ny+j].rng()
				if n == 0 {
					continue
				}
				b := (k*ny+j)*sx1 + lo // ey(lo, j, k), and hx's
				bz := (k*ny+j)*sx + lo // hz(lo, j, k)
				addCurl(s.ey[b:][:n], s.my[b:], s.hx[b:], s.hx[b-ny*sx1:], dz, s.hz[bz:], s.hz[bz-1:], dx, dt)
			}
		}
		// Ez(i, j, k+1/2) += dt * (dHy/dx - dHx/dy)
		for j := 1; j < ny; j++ {
			lo, n := s.spEz[k*(ny+1)+j].rng()
			if n == 0 {
				continue
			}
			b := (k*(ny+1)+j)*sx1 + lo // ez(lo, j, k)
			by := (k*(ny+1)+j)*sx + lo // hy(lo, j, k)
			bx := (k*ny+j)*sx1 + lo    // hx(lo, j, k)
			addCurl(s.ez[b:][:n], s.mz[b:], s.hy[by:], s.hy[by-1:], dx, s.hx[bx:], s.hx[bx-sx1:], dy, dt)
		}
	}
}

// applyPorts drives the input mouths and applies the first-order Mur
// absorbing update on every port mouth so outgoing waves leave the
// domain ("the reflection and transmission properties of open
// structures").
func (s *Sim) applyPorts() {
	for p := range s.ports {
		s.applyPort(&s.ports[p])
	}
}

func (s *Sim) applyPort(p *portPlane) {
	dy := s.Mesh.Dy
	coef := (s.dt - dy) / (s.dt + dy)
	// The port field is Ez: tangential to the mouth plane and aligned
	// with the cavity axis, so it couples directly into the TM
	// accelerating modes. Edge rows in Yee corner indexing: cell row j
	// spans corners j and j+1, and corner edges on the domain faces are
	// PEC-masked. For a top mouth at cell row p.j the outermost
	// *interior* edge row is corner p.j; for a bottom mouth it is
	// corner p.j+1. The Mur inner sample sits one further row toward
	// the cavity.
	jB, jIn := p.j, p.j-1
	if !p.top {
		jB, jIn = p.j+1, p.j+2
	}
	// Drive amplitude with smooth ramp.
	period := 2 * math.Pi / s.omega
	ramp := 1.0
	if s.Cfg.RampPeriods > 0 {
		r := s.time / (s.Cfg.RampPeriods * period)
		if r < 1 {
			ramp = 0.5 * (1 - math.Cos(math.Pi*r))
		}
	}
	driveVal := math.Sin(s.omega*s.time) * ramp

	idx := 0
	for k := p.kLo; k <= p.kHi && k < s.nz; k++ {
		for i := p.iLo; i <= p.iHi; i++ {
			bi := s.iEz(i, jB, k)
			ii := s.iEz(i, jIn, k)
			if s.mz[bi] && s.mz[ii] {
				// First-order Mur: outgoing wave absorbed at the mouth.
				s.ez[bi] = p.prevInner[idx] + coef*(s.ez[ii]-p.prevBoundary[idx])
				if p.drive {
					// Soft TE10-profile source superposed on the mouth.
					profile := math.Sin(math.Pi * float64(i-p.iLo+1) / float64(p.iHi-p.iLo+2))
					s.ez[bi] += s.dt * driveVal * profile
				}
			}
			p.prevBoundary[idx] = s.ez[bi]
			p.prevInner[idx] = s.ez[ii]
			idx++
		}
	}
}

// Energy returns the total electromagnetic field energy
// (1/2) sum (E^2 + H^2) dV — the diagnostic used to detect steady
// state and verify stability.
func (s *Sim) Energy() float64 {
	dv := s.Mesh.Dx * s.Mesh.Dy * s.Mesh.Dz
	var sum float64
	for _, v := range s.ex {
		sum += v * v
	}
	for _, v := range s.ey {
		sum += v * v
	}
	for _, v := range s.ez {
		sum += v * v
	}
	for _, v := range s.hx {
		sum += v * v
	}
	for _, v := range s.hy {
		sum += v * v
	}
	for _, v := range s.hz {
		sum += v * v
	}
	return 0.5 * sum * dv
}
