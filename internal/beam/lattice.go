package beam

import (
	"fmt"
	"math"
)

// Lattice describes a periodic FODO quadrupole channel: a focusing
// quad, a drift, a defocusing quad, and a second drift. Kappa(s)
// returns the horizontal focusing strength at path position s; the
// vertical strength is its negative (alternating-gradient focusing),
// which is what produces the four-fold symmetric beam evolution seen in
// the paper's Fig 5.
type Lattice struct {
	QuadLen  float64 // length of each quadrupole
	DriftLen float64 // length of each drift section
	Strength float64 // quadrupole gradient kappa0 (>0)
}

// Period returns the lattice period length.
func (l Lattice) Period() float64 { return 2*l.QuadLen + 2*l.DriftLen }

// Validate reports a descriptive error for non-physical parameters.
func (l Lattice) Validate() error {
	if !finite(l.QuadLen, l.DriftLen, l.Strength) {
		return fmt.Errorf("beam: quad length %g, drift length %g and quad strength %g must be finite", l.QuadLen, l.DriftLen, l.Strength)
	}
	if l.QuadLen <= 0 {
		return fmt.Errorf("beam: quad length %g must be positive", l.QuadLen)
	}
	if l.DriftLen < 0 {
		return fmt.Errorf("beam: drift length %g must be non-negative", l.DriftLen)
	}
	if l.Strength <= 0 {
		return fmt.Errorf("beam: quad strength %g must be positive", l.Strength)
	}
	return nil
}

// Kappa returns the horizontal focusing function kappa_x(s). The period
// starts at the center of the focusing quad so that, by symmetry, the
// matched envelope has a'(0) = b'(0) = 0 — the property the matched-
// envelope solver relies on.
//
// Layout over one period (F = focusing in x, D = defocusing in x):
//
//	[ F/2 ][ drift ][ D ][ drift ][ F/2 ]
func (l Lattice) Kappa(s float64) float64 {
	p := l.Period()
	s = math.Mod(s, p)
	if s < 0 {
		s += p
	}
	half := l.QuadLen / 2
	switch {
	case s < half: // first half of F quad
		return l.Strength
	case s < half+l.DriftLen: // drift
		return 0
	case s < half+l.DriftLen+l.QuadLen: // D quad
		return -l.Strength
	case s < half+2*l.DriftLen+l.QuadLen: // drift
		return 0
	default: // second half of F quad
		return l.Strength
	}
}

// NextBoundary returns the smallest segment boundary strictly greater
// than s. Segment boundaries are where Kappa is discontinuous; the
// envelope integrator splits its steps there so the RK4 stages never
// sample across a discontinuity, keeping the integration accuracy
// independent of step phase.
func (l Lattice) NextBoundary(s float64) float64 {
	p := l.Period()
	base := math.Floor(s/p) * p
	local := s - base
	half := l.QuadLen / 2
	boundaries := []float64{
		half,
		half + l.DriftLen,
		half + l.DriftLen + l.QuadLen,
		half + 2*l.DriftLen + l.QuadLen,
		p,
	}
	const tiny = 1e-12
	for _, b := range boundaries {
		if b > local+tiny {
			return base + b
		}
	}
	return base + p + half
}

// PhaseAdvance returns the zero-current phase advance per period, in
// radians, computed from the 2x2 transfer matrix of the horizontal
// plane. It is the standard design parameter for a FODO channel
// (stable for 0 < sigma0 < pi) and is used by tests to confirm the
// channel is in the operating regime of the paper's simulations.
func (l Lattice) PhaseAdvance() (float64, error) {
	if err := l.Validate(); err != nil {
		return 0, err
	}
	// Multiply the thick-lens transfer matrices across one period.
	m := [2][2]float64{{1, 0}, {0, 1}}
	mul := func(a, b [2][2]float64) [2][2]float64 {
		return [2][2]float64{
			{a[0][0]*b[0][0] + a[0][1]*b[1][0], a[0][0]*b[0][1] + a[0][1]*b[1][1]},
			{a[1][0]*b[0][0] + a[1][1]*b[1][0], a[1][0]*b[0][1] + a[1][1]*b[1][1]},
		}
	}
	focus := func(k, length float64) [2][2]float64 {
		if k > 0 {
			w := math.Sqrt(k)
			return [2][2]float64{
				{math.Cos(w * length), math.Sin(w*length) / w},
				{-w * math.Sin(w*length), math.Cos(w * length)},
			}
		}
		if k < 0 {
			w := math.Sqrt(-k)
			return [2][2]float64{
				{math.Cosh(w * length), math.Sinh(w*length) / w},
				{w * math.Sinh(w*length), math.Cosh(w * length)},
			}
		}
		return [2][2]float64{{1, length}, {0, 1}}
	}
	segs := []struct{ k, l float64 }{
		{l.Strength, l.QuadLen / 2},
		{0, l.DriftLen},
		{-l.Strength, l.QuadLen},
		{0, l.DriftLen},
		{l.Strength, l.QuadLen / 2},
	}
	for _, s := range segs {
		m = mul(focus(s.k, s.l), m)
	}
	tr := m[0][0] + m[1][1]
	if math.Abs(tr) >= 2 {
		return 0, fmt.Errorf("beam: lattice unstable (|trace| = %g >= 2)", math.Abs(tr))
	}
	return math.Acos(tr / 2), nil
}
