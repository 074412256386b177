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
	if !finite(c.Perveance, c.EmitX, c.EmitY, c.Mismatch, c.FocusZ, c.DriftZ) {
		return fmt.Errorf("beam: perveance %g, emittances (%g, %g), mismatch factor %g and longitudinal focusing and drift (%g, %g) must be finite",
			c.Perveance, c.EmitX, c.EmitY, c.Mismatch, c.FocusZ, c.DriftZ)
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

// finite reports whether no v is NaN or infinite.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Sim is a running particle-core simulation. Create with NewSim, then
// call Advance or RunPeriods; read Particles for the current
// phase-space state. Sim is not safe for concurrent use, but Advance
// pushes particles in parallel.
type Sim struct {
	Config    Config
	Particles *Ensemble
	Core      Envelope // current core envelope
	S         float64  // path length travelled

	steps   int
	matched Envelope
	ds      float64

	// The group being pushed: its kick constants at every step boundary
	// (at most StepsPerPeriod+1 of them), the first particle of the
	// current par call, and the push body, bound once so that a call
	// allocates nothing.
	tab  []boundary
	off  int
	push func(lo, hi int)
}

// boundary holds the kick constants at one step boundary: the
// focusing there and the squared and mixed core semi-axes.
type boundary struct {
	kappa, aa, bb, aab, bab float64
}

// block is how many particles a push carries through every step of a
// group before it moves on: six columns of 256 float64s (12 KiB) stay
// in L1, and the particles of a block are independent, so out-of-order
// execution overlaps their divisions.
const block = 256

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
	s := &Sim{
		Config:    cfg,
		Particles: e,
		Core:      core,
		matched:   matched,
		ds:        cfg.Lattice.Period() / float64(cfg.StepsPerPeriod),
		tab:       make([]boundary, 0, cfg.StepsPerPeriod+1),
	}
	s.push = s.pushChunk
	return s, nil
}

// Matched returns the matched envelope found at construction.
func (s *Sim) Matched() Envelope { return s.matched }

// Steps returns the number of integration steps taken so far.
func (s *Sim) Steps() int { return s.steps }

// RunPeriods advances the simulation by n full lattice periods:
// Advance(n*StepsPerPeriod).
func (s *Sim) RunPeriods(n int) { s.Advance(n * s.Config.StepsPerPeriod) }

// Advance advances the simulation by n integration steps of length ds
// (n <= 0 does nothing), each a leapfrog (kick-drift-kick) step for the
// particles synchronized with an RK4 update of the core envelope.
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
//
// The steps run in groups of at most StepsPerPeriod (and at most N). A
// group first advances the envelope serially, filling the kick
// constants at each of its step boundaries, then pushes the particles
// through all of its steps (see the package doc for why the result is
// the same bits as n single steps).
func (s *Sim) Advance(n int) {
	e := s.Particles
	for n > 0 {
		m := min(n, s.Config.StepsPerPeriod)
		if e.Len() > 0 {
			m = min(m, e.Len())
		}
		s.envelope(m)
		// Every par call pushes per particles through m steps: at
		// most N particle-steps, what one step of the whole ensemble
		// is, so no call holds the team longer than a step does.
		per := e.Len() / m
		for s.off = 0; s.off < e.Len(); s.off += per {
			par.ForChunks(min(per, e.Len()-s.off), 0, s.push)
		}
		n -= m
	}
}

// envelope advances the core envelope, S and the step count by m steps
// and fills s.tab with the kick constants at the m+1 step boundaries.
// Kappa at a boundary is taken at S as the step before it left it, the
// same float64 either side of the boundary.
func (s *Sim) envelope(m int) {
	cfg := s.Config
	s.tab = append(s.tab[:0], s.constants())
	for j := 0; j < m; j++ {
		s.Core = s.Core.StepRK4(cfg.Lattice, s.S, s.ds, cfg.Perveance, cfg.EmitX, cfg.EmitY)
		s.S += s.ds
		s.steps++
		s.tab = append(s.tab, s.constants())
	}
}

// constants returns the kick constants at the current S and envelope.
// Every division of the kick stays a division, so each particle sees
// the roundings it would from a kick function called with (a, b, K).
func (s *Sim) constants() boundary {
	a, b := s.Core.A, s.Core.B
	return boundary{
		kappa: s.Config.Lattice.Kappa(s.S),
		aa:    a * a, bb: b * b,
		aab: a * (a + b), bab: b * (a + b),
	}
}

// pushChunk pushes particles [off+lo, off+hi) through every step of the
// group in s.tab, one block at a time.
func (s *Sim) pushChunk(lo, hi int) {
	for lo, hi = lo+s.off, hi+s.off; lo < hi; lo += block {
		s.pushBlock(lo, min(lo+block, hi))
	}
}

// pushBlock pushes particles [lo, hi) through every step of the group.
// The force at a boundary is computed once and gives both half-kicks
// that meet there: the second of the step before and the first of the
// step after. The group's first and last boundaries give one each; the
// first is folded into the first step's pass, so that a one-step group
// reads and writes each particle once.
func (s *Sim) pushBlock(lo, hi int) {
	cfg, e := &s.Config, s.Particles
	ds := s.ds
	half := ds / 2
	k2, focusZ, driftZ := 2*cfg.Perveance, cfg.FocusZ, cfg.DriftZ
	xs := e.X[lo:hi]
	ys, zs := e.Y[lo:hi][:len(xs)], e.Z[lo:hi][:len(xs)]
	pxs, pys, pzs := e.Px[lo:hi][:len(xs)], e.Py[lo:hi][:len(xs)], e.Pz[lo:hi][:len(xs)]
	start, last := &s.tab[0], len(s.tab)-1
	for j := 1; j <= last; j++ {
		c := &s.tab[j]
		for i, x := range xs {
			y, z := ys[i], zs[i]
			px, py, pz := pxs[i], pys[i], pzs[i]

			if j == 1 { // the first half-kick of the group
				fx, fy := start.force(x, y, k2)
				px += half * (-start.kappa*x + fx)
				py += half * (start.kappa*y + fy)
				pz += half * (-focusZ * z)
			}

			x += ds * px
			y += ds * py
			z += ds * (pz + driftZ)

			// The second half-kick of step j-1 and, unless it ends
			// the group, the first of step j.
			fx, fy := c.force(x, y, k2)
			px += half * (-c.kappa*x + fx)
			py += half * (c.kappa*y + fy)
			pz += half * (-focusZ * z)
			if j < last {
				px += half * (-c.kappa*x + fx)
				py += half * (c.kappa*y + fy)
				pz += half * (-focusZ * z)
			}

			xs[i], ys[i], zs[i] = x, y, z
			pxs[i], pys[i], pzs[i] = px, py, pz
		}
	}
}

// force returns the space-charge force (Fx, Fy) at (x, y) from the core
// at this boundary, k2 being twice the perveance.
func (c *boundary) force(x, y, k2 float64) (fx, fy float64) {
	u := (x*x)/c.aa + (y*y)/c.bb
	fx = k2 * x / c.aab
	fy = k2 * y / c.bab
	if u > 1 {
		fx /= u
		fy /= u
	}
	return fx, fy
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
