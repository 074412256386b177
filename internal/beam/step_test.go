package beam

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/par"
)

// spaceChargeKick returns the transverse space-charge force (Fx, Fy) on
// a particle at (x, y) from the uniform elliptical core with semi-axes
// (a, b). Inside the core the KV field is exactly linear:
//
//	Fx = 2K x / (a (a+b)),   Fy = 2K y / (b (a+b))
//
// Outside, the field decays; we use the continuation F_out = F_in / u
// with u = x^2/a^2 + y^2/b^2 (>1 outside), which is continuous at the
// boundary and exact in the round-beam limit (where it reduces to the
// K/r line-charge far field). This is the standard particle-core closure.
func spaceChargeKick(x, y, a, b, perveance float64) (fx, fy float64) {
	u := (x*x)/(a*a) + (y*y)/(b*b)
	fx = 2 * perveance * x / (a * (a + b))
	fy = 2 * perveance * y / (b * (a + b))
	if u > 1 {
		fx /= u
		fy /= u
	}
	return
}

// refStep is Sim.Step as it was before its loop was written out — a
// closure call and two spaceChargeKick calls a particle — kept verbatim
// as the oracle of TestStepMatchesReference.
func refStep(s *Sim) {
	cfg := s.Config
	ds := s.ds
	half := ds / 2
	kappa0 := cfg.Lattice.Kappa(s.S)
	kappa1 := cfg.Lattice.Kappa(s.S + ds)
	a0, b0 := s.Core.A, s.Core.B
	next := s.Core.StepRK4(cfg.Lattice, s.S, ds, cfg.Perveance, cfg.EmitX, cfg.EmitY)
	a1, b1 := next.A, next.B

	e := s.Particles
	par.For(e.Len(), cfg.Workers, func(i int) {
		x, y, z := e.X[i], e.Y[i], e.Z[i]
		px, py, pz := e.Px[i], e.Py[i], e.Pz[i]

		// First half-kick with fields at s.
		fx, fy := spaceChargeKick(x, y, a0, b0, cfg.Perveance)
		px += half * (-kappa0*x + fx)
		py += half * (kappa0*y + fy)
		pz += half * (-cfg.FocusZ * z)

		// Drift.
		x += ds * px
		y += ds * py
		z += ds * (pz + cfg.DriftZ)

		// Second half-kick with fields at s+ds.
		fx, fy = spaceChargeKick(x, y, a1, b1, cfg.Perveance)
		px += half * (-kappa1*x + fx)
		py += half * (kappa1*y + fy)
		pz += half * (-cfg.FocusZ * z)

		e.X[i], e.Y[i], e.Z[i] = x, y, z
		e.Px[i], e.Py[i], e.Pz[i] = px, py, pz
	})

	s.Core = next
	s.S += ds
	s.steps++
}

// TestStepMatchesReference: the written-out Step leaves every particle
// and the envelope bit-identical to the reference over 100 steps, at
// every worker count, with N not a multiple of the worker count.
func TestStepMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		cfg := DefaultConfig(1013) // prime: no worker count divides it
		cfg.Workers = workers
		got, err := NewSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		outside := 0
		for step := 1; step <= 100; step++ {
			got.Step()
			refStep(want)
			if got.Core != want.Core || got.S != want.S || got.Steps() != want.Steps() {
				t.Fatalf("workers %d, step %d: envelope %+v at s=%v, reference %+v at s=%v",
					workers, step, got.Core, got.S, want.Core, want.S)
			}
			for a := AxisX; a <= AxisPZ; a++ {
				g, w := got.Particles.Coord(a), want.Particles.Coord(a)
				for i := range w {
					if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
						t.Fatalf("workers %d, step %d: %v[%d] = %v, reference %v", workers, step, a, i, g[i], w[i])
					}
				}
			}
		}
		// Both branches of the kick must have run: the mismatched core
		// leaves particles outside it.
		e, c := want.Particles, want.Core
		for i := range e.X {
			if (e.X[i]*e.X[i])/(c.A*c.A)+(e.Y[i]*e.Y[i])/(c.B*c.B) > 1 {
				outside++
			}
		}
		if outside == 0 || outside == e.Len() {
			t.Errorf("workers %d: %d of %d particles outside the core; the test needs both", workers, outside, e.Len())
		}
	}
}

// BenchmarkStep times one integration step; run with -cpu 1,2.
func BenchmarkStep(b *testing.B) {
	for _, n := range []int{100_000, 200_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, err := NewSim(DefaultConfig(n))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}
