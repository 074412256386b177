package beam

import (
	"fmt"
	"math"

	"repro/internal/par"
)

// Config describes a particle-core beam-dynamics run. The defaults
// (see DefaultConfig) put the channel at a zero-current phase advance
// near 80 degrees with strong space charge and a 1.5x envelope
// mismatch — the canonical halo-formation regime of Qiang & Ryne's
// particle-core studies, which is the regime the paper's figures show.
type Config struct {
	N    int   // number of test particles
	Seed int64 // RNG seed for the initial distribution

	Lattice   Lattice
	Perveance float64 // space-charge strength K
	EmitX     float64 // x emittance of the core
	EmitY     float64 // y emittance of the core
	Mismatch  float64 // initial envelope scale factor (1 = matched)

	// Longitudinal model: the bunch drifts in z at unit design velocity
	// with a weak linear restoring force holding it together. This keeps
	// the six-dimensional structure of the data without a longitudinal
	// space-charge solver, which the visualized halo does not depend on.
	FocusZ float64 // longitudinal focusing strength
	DriftZ float64 // design longitudinal velocity added to z each unit s

	StepsPerPeriod int // integrator resolution
	Workers        int // goroutine count for particle pushes (0 = auto)
}

// DefaultConfig returns a configuration that develops a visible halo in
// a few dozen lattice periods at laptop-scale particle counts.
func DefaultConfig(n int) Config {
	return Config{
		N:    n,
		Seed: 20020101,
		Lattice: Lattice{
			QuadLen:  0.2,
			DriftLen: 0.3,
			Strength: 12,
		},
		Perveance:      6e-3,
		EmitX:          1.5e-3,
		EmitY:          1.5e-3,
		Mismatch:       1.5,
		FocusZ:         0.5,
		DriftZ:         0.02,
		StepsPerPeriod: 64,
	}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("beam: particle count %d must be positive", c.N)
	}
	if err := c.Lattice.Validate(); err != nil {
		return err
	}
	if c.Perveance < 0 {
		return fmt.Errorf("beam: perveance %g must be non-negative", c.Perveance)
	}
	if c.EmitX <= 0 || c.EmitY <= 0 {
		return fmt.Errorf("beam: emittances (%g, %g) must be positive", c.EmitX, c.EmitY)
	}
	if c.Mismatch <= 0 {
		return fmt.Errorf("beam: mismatch factor %g must be positive", c.Mismatch)
	}
	if c.StepsPerPeriod < 8 {
		return fmt.Errorf("beam: steps per period %d too coarse (need >= 8)", c.StepsPerPeriod)
	}
	return nil
}

// Sim is a running particle-core simulation. Create with NewSim, then
// call Step or RunPeriods; read Particles for the current phase-space
// state. Sim is not safe for concurrent use, but each Step internally
// pushes particles in parallel.
type Sim struct {
	Config    Config
	Particles *Ensemble
	Core      Envelope // current core envelope
	S         float64  // path length travelled

	steps   int
	matched Envelope
	ds      float64
}

// NewSim constructs a simulation: solves for the matched envelope,
// applies the mismatch factor, and loads a semi-Gaussian particle
// distribution filling the (mismatched) core.
func NewSim(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	matched, err := MatchedEnvelope(cfg.Lattice, cfg.Perveance, cfg.EmitX, cfg.EmitY, cfg.StepsPerPeriod*4)
	if err != nil {
		return nil, err
	}
	core := Envelope{
		A: matched.A * cfg.Mismatch,
		B: matched.B * cfg.Mismatch,
	}
	e := NewEnsemble(cfg.N)
	// Momentum spread chosen so the particle distribution is roughly
	// self-consistent with the core emittance: sigma_p ~ eps / (2 sigma_x).
	psx := cfg.EmitX / (2 * core.A / 2)
	psy := cfg.EmitY / (2 * core.B / 2)
	e.SemiGaussianInit(cfg.Seed, core.A, core.B, core.A*4, [3]float64{psx, psy, psx / 4})
	return &Sim{
		Config:    cfg,
		Particles: e,
		Core:      core,
		matched:   matched,
		ds:        cfg.Lattice.Period() / float64(cfg.StepsPerPeriod),
	}, nil
}

// Matched returns the matched envelope found at construction.
func (s *Sim) Matched() Envelope { return s.matched }

// Steps returns the number of integration steps taken so far.
func (s *Sim) Steps() int { return s.steps }

// Step advances the simulation by one integration step of length ds
// using a leapfrog (kick-drift-kick) scheme for the particles,
// synchronized with an RK4 update of the core envelope.
//
// Each kick adds the transverse space-charge force (Fx, Fy) on a
// particle at (x, y) from the uniform elliptical core with semi-axes
// (a, b). Inside the core the KV field is exactly linear:
//
//	Fx = 2K x / (a (a+b)),   Fy = 2K y / (b (a+b))
//
// Outside, the field decays; we use the continuation F_out = F_in / u
// with u = x^2/a^2 + y^2/b^2 (>1 outside), which is continuous at the
// boundary and exact in the round-beam limit (where it reduces to the
// K/r line-charge far field). This is the standard particle-core closure.
func (s *Sim) Step() {
	cfg := s.Config
	ds := s.ds
	half := ds / 2
	kappa0 := cfg.Lattice.Kappa(s.S)
	kappa1 := cfg.Lattice.Kappa(s.S + ds)
	a0, b0 := s.Core.A, s.Core.B
	next := s.Core.StepRK4(cfg.Lattice, s.S, ds, cfg.Perveance, cfg.EmitX, cfg.EmitY)
	a1, b1 := next.A, next.B

	// The kicks' per-step constants, computed once; every division
	// below stays a division, so each particle sees the roundings it
	// would from a kick function called with (a, b, K).
	k2, focusZ, driftZ := 2*cfg.Perveance, cfg.FocusZ, cfg.DriftZ
	aa0, bb0, aab0, bab0 := a0*a0, b0*b0, a0*(a0+b0), b0*(a0+b0)
	aa1, bb1, aab1, bab1 := a1*a1, b1*b1, a1*(a1+b1), b1*(a1+b1)

	e := s.Particles
	par.ForChunks(e.Len(), cfg.Workers, func(lo, hi int) {
		xs, ys, zs := e.X[lo:hi], e.Y[lo:hi], e.Z[lo:hi]
		pxs, pys, pzs := e.Px[lo:hi], e.Py[lo:hi], e.Pz[lo:hi]
		for i, x := range xs {
			y, z := ys[i], zs[i]
			px, py, pz := pxs[i], pys[i], pzs[i]

			// First half-kick with fields at s.
			u := (x*x)/aa0 + (y*y)/bb0
			fx := k2 * x / aab0
			fy := k2 * y / bab0
			if u > 1 {
				fx /= u
				fy /= u
			}
			px += half * (-kappa0*x + fx)
			py += half * (kappa0*y + fy)
			pz += half * (-focusZ * z)

			// Drift.
			x += ds * px
			y += ds * py
			z += ds * (pz + driftZ)

			// Second half-kick with fields at s+ds.
			u = (x*x)/aa1 + (y*y)/bb1
			fx = k2 * x / aab1
			fy = k2 * y / bab1
			if u > 1 {
				fx /= u
				fy /= u
			}
			px += half * (-kappa1*x + fx)
			py += half * (kappa1*y + fy)
			pz += half * (-focusZ * z)

			xs[i], ys[i], zs[i] = x, y, z
			pxs[i], pys[i], pzs[i] = px, py, pz
		}
	})

	s.Core = next
	s.S += ds
	s.steps++
}

// RunPeriods advances the simulation by n full lattice periods.
func (s *Sim) RunPeriods(n int) {
	for i := 0; i < n*s.Config.StepsPerPeriod; i++ {
		s.Step()
	}
}

// Frame is a snapshot of the simulation state at one output time step —
// the unit the paper's partitioner and viewer operate on.
type Frame struct {
	Step int       // simulation step index at capture
	S    float64   // path length at capture
	E    *Ensemble // deep copy of the phase-space state
}

// Snapshot captures the current state as a Frame.
func (s *Sim) Snapshot() Frame {
	return Frame{Step: s.steps, S: s.S, E: s.Particles.Clone()}
}

// MaxRadius returns the largest sqrt(x^2+y^2) over the ensemble,
// normalized by the matched envelope's mean semi-axis — the standard
// halo-extent diagnostic of particle-core studies.
func (s *Sim) MaxRadius() float64 {
	mean := (s.matched.A + s.matched.B) / 2
	maxR2 := 0.0
	e := s.Particles
	for i := 0; i < e.Len(); i++ {
		r2 := e.X[i]*e.X[i] + e.Y[i]*e.Y[i]
		if r2 > maxR2 {
			maxR2 = r2
		}
	}
	return math.Sqrt(maxR2) / mean
}
