// Package beam implements the beam-dynamics substrate that generates
// the particle data visualized in §2 of the paper.
//
// The paper's data came from IMPACT, an object-oriented parallel
// particle-in-cell code (Qiang, Ryne, Habib, Decyk — ref [11]) running
// 100M–1B particle simulations of an intense beam in a magnetic
// quadrupole channel. Re-running those is out of scope for one host, so
// this package implements the published *particle-core* model (Qiang &
// Ryne, "Beam halo studies using a 3-dimensional particle-core model" —
// ref [10]), the very model used for the halo physics the paper's
// figures show: test particles tracked through an alternating-gradient
// (FODO) lattice under the nonlinear space-charge field of a mismatched
// uniform-density core whose envelope satisfies the KV equations.
// A mismatched core oscillates; the parametric 2:1 resonance between
// core oscillation and single-particle motion drives particles to large
// amplitude, forming exactly the tenuous halo that the paper's hybrid
// renderer exists to show.
//
// Particles carry the same six double-precision phase-space coordinates
// as the paper's data: (x, y, z, px, py, pz).
package beam

import (
	"fmt"
	"math/rand"

	"repro/internal/vec"
)

// Axis identifies one of the six phase-space coordinates. The paper's
// viewer builds 3-D plots from any three of them (Fig 2 shows (x,y,z),
// (x,px,y), (x,px,z) and (px,py,pz)).
type Axis int

// The six phase-space axes.
const (
	AxisX Axis = iota
	AxisY
	AxisZ
	AxisPX
	AxisPY
	AxisPZ
)

// String implements fmt.Stringer.
func (a Axis) String() string {
	switch a {
	case AxisX:
		return "x"
	case AxisY:
		return "y"
	case AxisZ:
		return "z"
	case AxisPX:
		return "px"
	case AxisPY:
		return "py"
	case AxisPZ:
		return "pz"
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// ParseAxis converts a name like "x" or "px" to an Axis.
func ParseAxis(s string) (Axis, error) {
	for a := AxisX; a <= AxisPZ; a++ {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("beam: unknown axis %q", s)
}

// Ensemble stores N particles in structure-of-arrays layout so the
// per-coordinate passes of the integrator and the octree partitioner
// stream through memory sequentially. All six slices always have equal
// length.
type Ensemble struct {
	X, Y, Z    []float64
	Px, Py, Pz []float64
}

// NewEnsemble allocates an ensemble of n particles at the phase-space
// origin.
func NewEnsemble(n int) *Ensemble {
	return &Ensemble{
		X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n),
		Px: make([]float64, n), Py: make([]float64, n), Pz: make([]float64, n),
	}
}

// Len returns the particle count.
func (e *Ensemble) Len() int { return len(e.X) }

// Resize sets the particle count to n, keeping every column whose
// backing array is large enough — what lets a frame reader or a
// snapshot refill a recycled ensemble. Contents are unspecified.
func (e *Ensemble) Resize(n int) {
	for _, col := range []*[]float64{&e.X, &e.Y, &e.Z, &e.Px, &e.Py, &e.Pz} {
		if *col == nil || cap(*col) < n {
			*col = make([]float64, n)
		}
		*col = (*col)[:n]
	}
}

// Coord returns the slice backing the given axis.
func (e *Ensemble) Coord(a Axis) []float64 {
	switch a {
	case AxisX:
		return e.X
	case AxisY:
		return e.Y
	case AxisZ:
		return e.Z
	case AxisPX:
		return e.Px
	case AxisPY:
		return e.Py
	case AxisPZ:
		return e.Pz
	}
	panic(fmt.Sprintf("beam: bad axis %d", int(a)))
}

// Point3 returns particle i projected onto the three given axes — the
// operation behind every "plot type" in the paper's partitioner.
func (e *Ensemble) Point3(i int, ax [3]Axis) vec.V3 {
	return vec.V3{
		X: e.Coord(ax[0])[i],
		Y: e.Coord(ax[1])[i],
		Z: e.Coord(ax[2])[i],
	}
}

// Clone returns a deep copy of the ensemble — a simulation "frame"
// snapshot decoupled from further stepping.
func (e *Ensemble) Clone() *Ensemble { return e.CloneInto(new(Ensemble)) }

// CloneInto is Clone into c's storage (see Resize); it returns c.
func (e *Ensemble) CloneInto(c *Ensemble) *Ensemble {
	c.Resize(e.Len())
	copy(c.X, e.X)
	copy(c.Y, e.Y)
	copy(c.Z, e.Z)
	copy(c.Px, e.Px)
	copy(c.Py, e.Py)
	copy(c.Pz, e.Pz)
	return c
}

// SemiGaussianInit fills the ensemble with the semi-Gaussian
// distribution conventional in halo studies: uniformly filled spatial
// ellipsoid (radii a, b, c) with Gaussian momenta. This matches the
// uniform-density core assumption of the particle-core model at s=0.
func (e *Ensemble) SemiGaussianInit(seed int64, a, b, c float64, psigma [3]float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < e.Len(); i++ {
		// Rejection-sample the unit ball, then scale per-axis.
		for {
			x := 2*rng.Float64() - 1
			y := 2*rng.Float64() - 1
			z := 2*rng.Float64() - 1
			if x*x+y*y+z*z <= 1 {
				e.X[i], e.Y[i], e.Z[i] = a*x, b*y, c*z
				break
			}
		}
		e.Px[i] = psigma[0] * rng.NormFloat64()
		e.Py[i] = psigma[1] * rng.NormFloat64()
		e.Pz[i] = psigma[2] * rng.NormFloat64()
	}
}
