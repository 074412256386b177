package beam

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/mallocs"
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
	par.For(e.Len(), par.Workers(), func(i int) {
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

// TestStepMatchesReference: a single step, Advance(1), leaves every
// particle and the envelope bit-identical to the reference, step after
// step for 100 steps, at every core count, with N not a multiple of
// the core count. Both branches of the kick must have run: the
// mismatched core leaves particles outside it.
func TestStepMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 7} {
		runtime.GOMAXPROCS(procs)
		cfg := DefaultConfig(1013) // prime: no core count divides it
		inside, outside, err := checkAdvance((*Sim).Advance, cfg, 1, 100)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		if inside == 0 || outside == 0 {
			t.Errorf("GOMAXPROCS %d: at most %d particles inside the core and %d outside; the test needs both", procs, inside, outside)
		}
	}
}

// sameState reports the first difference between got and want: a
// particle coordinate by bits, the envelope, S or the step count.
func sameState(got, want *Sim) error {
	if got.Core != want.Core || got.S != want.S || got.Steps() != want.Steps() {
		return fmt.Errorf("envelope %+v at s=%v after %d steps, reference %+v at s=%v after %d",
			got.Core, got.S, got.Steps(), want.Core, want.S, want.Steps())
	}
	for a := AxisX; a <= AxisPZ; a++ {
		g, w := got.Particles.Coord(a), want.Particles.Coord(a)
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				return fmt.Errorf("%v[%d] = %v, reference %v", a, i, g[i], w[i])
			}
		}
	}
	return nil
}

// outsideCore counts the particles outside the current core ellipse:
// the ones whose kick takes the u > 1 branch.
func outsideCore(s *Sim) int {
	e, c := s.Particles, s.Core
	n := 0
	for i := range e.X {
		if (e.X[i]*e.X[i])/(c.A*c.A)+(e.Y[i]*e.Y[i])/(c.B*c.B) > 1 {
			n++
		}
	}
	return n
}

// checkAdvance runs advance(sim, n) calls times from cfg's start and
// n refSteps after each, and reports the first difference. It also
// returns the most particles that were inside and outside the core at
// any call's end.
func checkAdvance(advance func(*Sim, int), cfg Config, n, calls int) (inside, outside int, err error) {
	got, err := NewSim(cfg)
	if err != nil {
		return 0, 0, err
	}
	want, err := NewSim(cfg)
	if err != nil {
		return 0, 0, err
	}
	for call := 1; call <= calls; call++ {
		advance(got, n)
		for k := 0; k < n; k++ {
			refStep(want)
		}
		if err := sameState(got, want); err != nil {
			return inside, outside, fmt.Errorf("call %d: %w", call, err)
		}
		out := outsideCore(want)
		inside, outside = max(inside, want.Particles.Len()-out), max(outside, out)
	}
	return inside, outside, nil
}

// TestAdvanceMatchesReference: Advance(n) leaves the particles, Core, S
// and Steps bit-identical to n refSteps, call after call, for n below,
// at and above StepsPerPeriod (one group, several, a short last one),
// at every core count including the process's own, with N prime (no
// core count divides it, and no block size) and with N below one
// block and below n (groups cut to N steps, one particle per par call).
// Every run must leave particles both inside and outside the core, so
// that both branches of the kick are compared.
func TestAdvanceMatchesReference(t *testing.T) {
	own := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(own)
	for _, n := range []int{1, 5, 64, 130} {
		for _, size := range []int{1013, 50} {
			for _, procs := range []int{1, 2, 3, 7, own} {
				runtime.GOMAXPROCS(procs)
				cfg := DefaultConfig(size)
				calls := (400 + n - 1) / n // past the first core oscillation
				inside, outside, err := checkAdvance((*Sim).Advance, cfg, n, calls)
				if err != nil {
					t.Fatalf("n %d, N %d, GOMAXPROCS %d: %v", n, size, procs, err)
				}
				if inside == 0 || outside == 0 {
					t.Errorf("n %d, N %d, GOMAXPROCS %d: at most %d particles inside the core and %d outside; the test needs both",
						n, size, procs, inside, outside)
				}
			}
		}
	}
}

// TestAdvanceMutantFails: the differential test catches Advance with
// the force at a boundary taken before the drift instead of after it.
// The written-out copy without the defect must pass, so that the
// mutant fails for its defect alone.
func TestAdvanceMutantFails(t *testing.T) {
	for _, n := range []int{1, 64} {
		if _, _, err := checkAdvance(advanceCopy(false), DefaultConfig(1013), n, 2); err != nil {
			t.Errorf("n %d: the written-out copy differs from the reference: %v", n, err)
		}
		if _, _, err := checkAdvance(advanceCopy(true), DefaultConfig(1013), n, 2); err == nil {
			t.Errorf("n %d: the stale-force mutant matched the reference", n)
		}
	}
}

// advanceCopy returns Advance written out serially, one particle at a
// time. With stale set it has one defect: the force a boundary's kicks
// use is computed before the drift that reaches the boundary, at the
// particle's old position.
func advanceCopy(stale bool) func(*Sim, int) {
	return func(s *Sim, n int) {
		cfg, e := s.Config, s.Particles
		ds := s.ds
		half := ds / 2
		k2, focusZ, driftZ := 2*cfg.Perveance, cfg.FocusZ, cfg.DriftZ
		for n > 0 {
			m := min(n, cfg.StepsPerPeriod, e.Len())
			s.envelope(m)
			start, last := &s.tab[0], len(s.tab)-1
			for i := range e.X {
				x, y, z := e.X[i], e.Y[i], e.Z[i]
				px, py, pz := e.Px[i], e.Py[i], e.Pz[i]
				for j := 1; j <= last; j++ {
					c := &s.tab[j]
					if j == 1 {
						fx, fy := start.force(x, y, k2)
						px += half * (-start.kappa*x + fx)
						py += half * (start.kappa*y + fy)
						pz += half * (-focusZ * z)
					}
					var fx, fy float64
					if stale {
						fx, fy = c.force(x, y, k2)
					}
					x += ds * px
					y += ds * py
					z += ds * (pz + driftZ)
					if !stale {
						fx, fy = c.force(x, y, k2)
					}
					px += half * (-c.kappa*x + fx)
					py += half * (c.kappa*y + fy)
					pz += half * (-focusZ * z)
					if j < last {
						px += half * (-c.kappa*x + fx)
						py += half * (c.kappa*y + fy)
						pz += half * (-focusZ * z)
					}
				}
				e.X[i], e.Y[i], e.Z[i] = x, y, z
				e.Px[i], e.Py[i], e.Pz[i] = px, py, pz
			}
			n -= m
		}
	}
}

// TestAdvanceAllocatesNothing: a period's push binds nothing per call —
// the body is bound in NewSim and the kick table lives on the Sim — at
// one core and at several.
func TestAdvanceAllocatesNothing(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		s, err := NewSim(DefaultConfig(3000))
		if err != nil {
			t.Fatal(err)
		}
		if got := mallocs.PerRun(t, procs, 20, func() { s.RunPeriods(1) }); got != 0 {
			t.Errorf("GOMAXPROCS %d: %v allocations per period, want 0", procs, got)
		}
	}
}

// TestAdvanceBoundsEachCall: no par call of Advance pushes more than N
// particle-steps, whatever n and N are, and every particle is pushed
// through every step of its group exactly once. At one core a par call
// is one call of the push body, on the caller.
func TestAdvanceBoundsEachCall(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, n := range []int{1, 5, 64, 130} {
		for _, size := range []int{1013, 50, 1} {
			s, err := NewSim(DefaultConfig(size))
			if err != nil {
				t.Fatal(err)
			}
			pushed := 0
			s.push = func(lo, hi int) {
				steps := (hi - lo) * (len(s.tab) - 1)
				if steps > size {
					t.Fatalf("n %d, N %d: a call pushes %d particle-steps", n, size, steps)
				}
				pushed += steps
			}
			s.Advance(n)
			if pushed != n*size || s.Steps() != n {
				t.Errorf("n %d, N %d: %d particle-steps pushed over %d steps, want %d over %d", n, size, pushed, s.Steps(), n*size, n)
			}
		}
	}
}

// BenchmarkAdvance times one integration step (Step) and one lattice
// period (RunPeriods(1)) and reports particle-steps per second; run
// with -cpu 1,2.
func BenchmarkAdvance(b *testing.B) {
	for _, c := range []struct {
		name  string
		steps int
	}{{"step", 1}, {"period", 64}} {
		for _, n := range []int{100_000, 200_000} {
			b.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(b *testing.B) {
				cfg := DefaultConfig(n)
				cfg.StepsPerPeriod = 64
				s, err := NewSim(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Advance(c.steps)
				}
				b.ReportMetric(float64(b.N)*float64(c.steps*n)/b.Elapsed().Seconds(), "particle_steps/s")
			})
		}
	}
}
