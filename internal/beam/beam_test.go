package beam

import (
	"math"
	"testing"

	"repro/internal/par"
)

func testLattice() Lattice {
	return Lattice{QuadLen: 0.2, DriftLen: 0.3, Strength: 12}
}

func TestLatticeValidate(t *testing.T) {
	cases := []struct {
		name string
		lat  Lattice
		ok   bool
	}{
		{"good", testLattice(), true},
		{"zero quad", Lattice{0, 0.3, 32}, false},
		{"negative drift", Lattice{0.2, -1, 32}, false},
		{"zero strength", Lattice{0.2, 0.3, 0}, false},
	}
	for _, c := range cases {
		err := c.lat.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestKappaLayout(t *testing.T) {
	lat := testLattice()
	p := lat.Period()
	if p != 1.0 {
		t.Fatalf("period = %v, want 1.0", p)
	}
	cases := []struct {
		s    float64
		want float64
	}{
		{0.05, 12},  // first half of F quad
		{0.2, 0},    // drift
		{0.5, -12},  // D quad
		{0.8, 0},    // drift
		{0.95, 12},  // second half of F quad
		{1.05, 12},  // periodic wrap
		{-0.05, 12}, // negative s wraps to tail F half
		{2.5, -12},  // wraps into D quad
	}
	for _, c := range cases {
		if got := lat.Kappa(c.s); got != c.want {
			t.Errorf("Kappa(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestKappaAlternates(t *testing.T) {
	// Integral of kappa over a full period must vanish for a symmetric
	// FODO channel (equal focusing and defocusing).
	lat := testLattice()
	const n = 100000
	sum := 0.0
	ds := lat.Period() / n
	for i := 0; i < n; i++ {
		sum += lat.Kappa((float64(i)+0.5)*ds) * ds
	}
	if math.Abs(sum) > 1e-9 {
		t.Errorf("integral of kappa over period = %v, want 0", sum)
	}
}

func TestPhaseAdvanceStable(t *testing.T) {
	lat := testLattice()
	sigma, err := lat.PhaseAdvance()
	if err != nil {
		t.Fatalf("PhaseAdvance: %v", err)
	}
	deg := sigma * 180 / math.Pi
	// Halo studies operate below the 90-degree envelope-instability
	// threshold; confirm the default channel is in that regime.
	if deg <= 10 || deg >= 90 {
		t.Errorf("phase advance = %.1f deg, want in (10, 90)", deg)
	}
}

func TestPhaseAdvanceUnstable(t *testing.T) {
	lat := Lattice{QuadLen: 0.5, DriftLen: 1.0, Strength: 100}
	if _, err := lat.PhaseAdvance(); err == nil {
		t.Error("expected instability error for absurdly strong lattice")
	}
}

func TestMatchedEnvelopeIsPeriodic(t *testing.T) {
	lat := testLattice()
	const K, eps = 6e-3, 1.5e-3
	m, err := MatchedEnvelope(lat, K, eps, eps, 256)
	if err != nil {
		t.Fatalf("MatchedEnvelope: %v", err)
	}
	if m.A <= 0 || m.B <= 0 {
		t.Fatalf("non-positive matched envelope %+v", m)
	}
	// Propagate one period and confirm it returns to itself.
	e := m
	steps := 1024
	ds := lat.Period() / float64(steps)
	s := 0.0
	for i := 0; i < steps; i++ {
		e = e.StepRK4(lat, s, ds, K, eps, eps)
		s += ds
	}
	if math.Abs(e.A-m.A) > 1e-4*m.A || math.Abs(e.B-m.B) > 1e-4*m.B {
		t.Errorf("matched envelope not periodic: start %+v end %+v", m, e)
	}
}

func TestMatchedEnvelopeSymmetry(t *testing.T) {
	// With equal emittances, the matched envelope at the F-quad center
	// has a > b (beam wide where focusing is strong in x... actually the
	// F quad focuses x, so the x envelope is at a minimum there in a
	// zero-current channel; with the period starting mid-F-quad, a and b
	// must simply be distinct and positive).
	lat := testLattice()
	m, err := MatchedEnvelope(lat, 6e-3, 1.5e-3, 1.5e-3, 256)
	if err != nil {
		t.Fatalf("MatchedEnvelope: %v", err)
	}
	if m.A == m.B {
		t.Errorf("matched a == b (%v) in an alternating-gradient channel", m.A)
	}
}

func TestSpaceChargeKickContinuity(t *testing.T) {
	// The force must be continuous across the core boundary.
	a, b, K := 2.0, 1.0, 1e-2
	// Point on the boundary along a diagonal: x/a = cos t, y/b = sin t.
	tt := 0.7
	x, y := a*math.Cos(tt), b*math.Sin(tt)
	fxIn, fyIn := spaceChargeKick(x*0.999999, y*0.999999, a, b, K)
	fxOut, fyOut := spaceChargeKick(x*1.000001, y*1.000001, a, b, K)
	if math.Abs(fxIn-fxOut) > 1e-6*math.Abs(fxIn) || math.Abs(fyIn-fyOut) > 1e-6*math.Abs(fyIn) {
		t.Errorf("space-charge force discontinuous at boundary: in (%v,%v) out (%v,%v)",
			fxIn, fyIn, fxOut, fyOut)
	}
}

func TestSpaceChargeFarField(t *testing.T) {
	// Far from a round core the field must match the line-charge far
	// field of this perveance convention: F = K/r (the interior field
	// K x/a^2 continued through the boundary).
	a, K := 1.0, 1e-2
	r := 50.0
	fx, _ := spaceChargeKick(r, 0, a, a, K)
	want := K / r
	if math.Abs(fx-want) > 1e-9 {
		t.Errorf("far field = %v, want %v", fx, want)
	}
}

func TestSpaceChargeLinearInside(t *testing.T) {
	a, b, K := 1.5, 0.8, 1e-2
	fx1, fy1 := spaceChargeKick(0.1, 0.05, a, b, K)
	fx2, fy2 := spaceChargeKick(0.2, 0.10, a, b, K)
	if math.Abs(fx2-2*fx1) > 1e-12 || math.Abs(fy2-2*fy1) > 1e-12 {
		t.Errorf("interior force not linear: (%v,%v) vs 2x(%v,%v)", fx2, fy2, fx1, fy1)
	}
}

func TestNewSimValidation(t *testing.T) {
	cfg := DefaultConfig(0)
	if _, err := NewSim(cfg); err == nil {
		t.Error("NewSim accepted zero particles")
	}
	cfg = DefaultConfig(10)
	cfg.EmitX = -1
	if _, err := NewSim(cfg); err == nil {
		t.Error("NewSim accepted negative emittance")
	}
}

func TestSimMatchedBeamStaysBounded(t *testing.T) {
	cfg := DefaultConfig(2000)
	cfg.Mismatch = 1.0 // matched: no halo should develop
	sim, err := NewSim(cfg)
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	sim.RunPeriods(20)
	if r := sim.MaxRadius(); r > 4 {
		t.Errorf("matched beam max radius = %.2f matched radii; expected < 4", r)
	}
}

func TestSimMismatchedBeamGrowsHalo(t *testing.T) {
	mk := func(mismatch float64) float64 {
		cfg := DefaultConfig(2000)
		cfg.Mismatch = mismatch
		sim, err := NewSim(cfg)
		if err != nil {
			t.Fatalf("NewSim: %v", err)
		}
		sim.RunPeriods(40)
		m := sim.Matched()
		// Fraction of particles beyond 2.5 matched mean radii — the
		// particle-core halo population.
		return FractionBeyondRadius(sim.Particles, 2.5*(m.A+m.B)/2, 0)
	}
	matched := mk(1.0)
	mismatched := mk(1.5)
	if matched > 0.001 {
		t.Errorf("matched beam grew a halo: fraction %.4f beyond 2.5 radii", matched)
	}
	if mismatched < 0.005 {
		t.Errorf("mismatched beam halo fraction %.4f, want >= 0.005 (resonance missing)", mismatched)
	}
}

func TestSimPreservesParticleCount(t *testing.T) {
	cfg := DefaultConfig(500)
	sim, err := NewSim(cfg)
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	sim.RunPeriods(5)
	if sim.Particles.Len() != 500 {
		t.Errorf("particle count changed to %d", sim.Particles.Len())
	}
	for i := 0; i < sim.Particles.Len(); i++ {
		for a := AxisX; a <= AxisPZ; a++ {
			v := sim.Particles.Coord(a)[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("particle %d axis %v is %v", i, a, v)
			}
		}
	}
}

func TestSimDeterministic(t *testing.T) {
	run := func() *Ensemble {
		cfg := DefaultConfig(300)
		sim, err := NewSim(cfg)
		if err != nil {
			t.Fatalf("NewSim: %v", err)
		}
		sim.RunPeriods(3)
		return sim.Particles
	}
	a, b := run(), run()
	for i := 0; i < a.Len(); i++ {
		if a.X[i] != b.X[i] || a.Px[i] != b.Px[i] {
			t.Fatalf("run not deterministic at particle %d", i)
		}
	}
}

func TestSnapshotsAreIndependentCopies(t *testing.T) {
	cfg := DefaultConfig(200)
	sim, err := NewSim(cfg)
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	frames := []Frame{sim.Snapshot()}
	for i := 1; i <= 100; i++ {
		sim.Step()
		if i%25 == 0 {
			frames = append(frames, sim.Snapshot())
		}
	}
	if frames[0].Step != 0 || frames[4].Step != 100 {
		t.Errorf("frame steps = %d..%d, want 0..100", frames[0].Step, frames[4].Step)
	}
	// Frames must be independent copies.
	frames[0].E.X[0] = 1e9
	if frames[1].E.X[0] == 1e9 {
		t.Error("frames share storage")
	}
}

func TestFourFoldSymmetryOfChannel(t *testing.T) {
	cfg := DefaultConfig(20000)
	sim, err := NewSim(cfg)
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	sim.RunPeriods(10)
	if score := FourFoldSymmetry(sim.Particles); score > 0.08 {
		t.Errorf("four-fold symmetry deviation = %.3f, want <= 0.08", score)
	}
}

// Moments holds second-order statistics of one transverse plane.
type Moments struct {
	MeanQ, MeanP float64 // centroid
	SigQ, SigP   float64 // RMS widths
	Emittance    float64 // RMS emittance sqrt(<q^2><p^2> - <qp>^2)
}

// PlaneMoments computes centroid, RMS widths and RMS emittance for the
// plane defined by coordinate axis q and momentum axis p. The reduction
// runs in parallel chunks.
func PlaneMoments(e *Ensemble, q, p Axis, workers int) Moments {
	qs, ps := e.Coord(q), e.Coord(p)
	n := e.Len()
	if n == 0 {
		return Moments{}
	}
	type acc struct{ sq, sp, sqq, spp, sqp float64 }
	total := par.MapReduce(n, workers,
		func() acc { return acc{} },
		func(a acc, lo, hi int) acc {
			for i := lo; i < hi; i++ {
				a.sq += qs[i]
				a.sp += ps[i]
				a.sqq += qs[i] * qs[i]
				a.spp += ps[i] * ps[i]
				a.sqp += qs[i] * ps[i]
			}
			return a
		},
		func(a, b acc) acc {
			return acc{a.sq + b.sq, a.sp + b.sp, a.sqq + b.sqq, a.spp + b.spp, a.sqp + b.sqp}
		},
	)
	fn := float64(n)
	mq, mp := total.sq/fn, total.sp/fn
	vq := total.sqq/fn - mq*mq
	vp := total.spp/fn - mp*mp
	cqp := total.sqp/fn - mq*mp
	det := vq*vp - cqp*cqp
	if det < 0 {
		det = 0
	}
	return Moments{
		MeanQ: mq, MeanP: mp,
		SigQ: math.Sqrt(math.Max(vq, 0)), SigP: math.Sqrt(math.Max(vp, 0)),
		Emittance: math.Sqrt(det),
	}
}

func TestPlaneMoments(t *testing.T) {
	e := NewEnsemble(4)
	e.X = []float64{1, -1, 2, -2}
	e.Px = []float64{1, 1, -1, -1}
	m := PlaneMoments(e, AxisX, AxisPX, 0)
	if m.MeanQ != 0 || m.MeanP != 0 {
		t.Errorf("means = (%v, %v), want 0", m.MeanQ, m.MeanP)
	}
	wantSig := math.Sqrt(2.5)
	if math.Abs(m.SigQ-wantSig) > 1e-12 {
		t.Errorf("SigQ = %v, want %v", m.SigQ, wantSig)
	}
	if m.SigP != 1 {
		t.Errorf("SigP = %v, want 1", m.SigP)
	}
}

func TestEmittanceInvariantUnderDrift(t *testing.T) {
	// RMS emittance is preserved by a pure drift x += L*px.
	e := NewEnsemble(1000)
	e.SemiGaussianInit(42, 1, 1, 1, [3]float64{0.1, 0.1, 0.1})
	before := PlaneMoments(e, AxisX, AxisPX, 0).Emittance
	for i := range e.X {
		e.X[i] += 3.7 * e.Px[i]
	}
	after := PlaneMoments(e, AxisX, AxisPX, 0).Emittance
	if math.Abs(after-before) > 1e-9*before {
		t.Errorf("drift changed emittance: %v -> %v", before, after)
	}
}

func TestSemiGaussianInsideEllipsoid(t *testing.T) {
	e := NewEnsemble(10000)
	a, b, c := 2.0, 1.0, 3.0
	e.SemiGaussianInit(9, a, b, c, [3]float64{0.1, 0.1, 0.1})
	for i := 0; i < e.Len(); i++ {
		u := e.X[i]*e.X[i]/(a*a) + e.Y[i]*e.Y[i]/(b*b) + e.Z[i]*e.Z[i]/(c*c)
		if u > 1+1e-12 {
			t.Fatalf("particle %d outside ellipsoid: u=%v", i, u)
		}
	}
}

func TestParseAxis(t *testing.T) {
	for a := AxisX; a <= AxisPZ; a++ {
		got, err := ParseAxis(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAxis(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseAxis("bogus"); err == nil {
		t.Error("ParseAxis accepted bogus axis")
	}
}

func TestPoint3Projection(t *testing.T) {
	e := NewEnsemble(1)
	e.X[0], e.Y[0], e.Z[0] = 1, 2, 3
	e.Px[0], e.Py[0], e.Pz[0] = 4, 5, 6
	p := e.Point3(0, [3]Axis{AxisX, AxisPX, AxisY})
	if p.X != 1 || p.Y != 4 || p.Z != 2 {
		t.Errorf("Point3 = %v, want (1,4,2)", p)
	}
}
