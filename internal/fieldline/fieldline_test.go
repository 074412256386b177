package fieldline

import (
	"math"
	"testing"

	"repro/internal/vec"
)

// uniformX is a constant field along +x.
func uniformX(p vec.V3) vec.V3 { return vec.New(2, 0, 0) }

// circular is a field circling the z axis (magnetic-like closed lines).
func circular(p vec.V3) vec.V3 { return vec.New(-p.Y, p.X, 0) }

// radial points away from the origin with 1/r^2 falloff (electric-like).
func radial(p vec.V3) vec.V3 {
	r2 := p.Len2()
	if r2 == 0 {
		return vec.V3{}
	}
	return p.Norm().Scale(1 / r2)
}

func TestConfigValidate(t *testing.T) {
	good := Config{Step: 0.1, MaxSteps: 10}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	if (Config{Step: 0, MaxSteps: 10}).Validate() == nil {
		t.Error("accepted zero step")
	}
	if (Config{Step: 0.1, MaxSteps: 0}).Validate() == nil {
		t.Error("accepted zero max steps")
	}
	if (Config{Step: 0.1, MaxSteps: 5, MinMag: -1}).Validate() == nil {
		t.Error("accepted negative min magnitude")
	}
}

func TestTraceUniformFieldIsStraight(t *testing.T) {
	cfg := Config{Step: 0.1, MaxSteps: 50}
	line, err := Trace(FieldFunc(uniformX), vec.New(0, 1, 2), cfg, +1)
	if err != nil {
		t.Fatal(err)
	}
	if line.NumPoints() != 51 {
		t.Fatalf("got %d points, want 51", line.NumPoints())
	}
	last := line.Points[len(line.Points)-1]
	if math.Abs(last.X-5.0) > 1e-9 || last.Y != 1 || last.Z != 2 {
		t.Errorf("end point %v, want (5, 1, 2)", last)
	}
	// All strengths equal the field magnitude 2.
	for _, s := range line.Strengths {
		if s != 2 {
			t.Fatalf("strength %v, want 2", s)
		}
	}
	// Arc length ~ 5.
	if math.Abs(line.Length()-5) > 1e-9 {
		t.Errorf("length %v, want 5", line.Length())
	}
}

func TestTraceBackward(t *testing.T) {
	cfg := Config{Step: 0.1, MaxSteps: 10}
	line, err := Trace(FieldFunc(uniformX), vec.New(0, 0, 0), cfg, -1)
	if err != nil {
		t.Fatal(err)
	}
	last := line.Points[len(line.Points)-1]
	if last.X >= 0 {
		t.Errorf("backward trace went forward: %v", last)
	}
	// Tangents point along the direction of travel (-x).
	if line.Tangents[0].X >= 0 {
		t.Errorf("tangent %v should point -x", line.Tangents[0])
	}
}

func TestTraceCircularStaysOnCircle(t *testing.T) {
	cfg := Config{Step: 0.01, MaxSteps: 2000, CloseLoop: true}
	seed := vec.New(1, 0, 0)
	line, err := Trace(FieldFunc(circular), seed, cfg, +1)
	if err != nil {
		t.Fatal(err)
	}
	if !line.Closed {
		t.Error("circular field line did not close")
	}
	// Radius stays ~1 (RK4 accuracy).
	for i, p := range line.Points {
		if math.Abs(p.Len()-1) > 1e-4 {
			t.Fatalf("point %d radius %v drifted from 1", i, p.Len())
		}
	}
	// Closed loop length ~ 2*pi.
	if math.Abs(line.Length()-2*math.Pi) > 0.1 {
		t.Errorf("loop length %v, want ~%v", line.Length(), 2*math.Pi)
	}
}

func TestTraceStopsAtDomainBoundary(t *testing.T) {
	cfg := Config{
		Step: 0.1, MaxSteps: 1000,
		Domain: func(p vec.V3) bool { return p.X < 2 },
	}
	line, err := Trace(FieldFunc(uniformX), vec.New(0, 0, 0), cfg, +1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range line.Points {
		if p.X >= 2 {
			t.Fatalf("point %v outside domain", p)
		}
	}
	if line.NumPoints() > 25 {
		t.Errorf("line kept %d points; domain exit ignored", line.NumPoints())
	}
}

func TestTraceStopsAtWeakField(t *testing.T) {
	cfg := Config{Step: 0.1, MaxSteps: 10000, MinMag: 0.1}
	// Radial field decays as 1/r^2; integration must stop near r ~ 3.16.
	line, err := Trace(FieldFunc(radial), vec.New(0.5, 0, 0), cfg, +1)
	if err != nil {
		t.Fatal(err)
	}
	last := line.Points[len(line.Points)-1]
	if last.Len() > 3.5 {
		t.Errorf("line continued to r=%v despite MinMag", last.Len())
	}
	if line.NumPoints() == 0 {
		t.Error("no points recorded")
	}
}

func TestTraceZeroFieldProducesEmptyLine(t *testing.T) {
	cfg := Config{Step: 0.1, MaxSteps: 10}
	line, err := Trace(FieldFunc(func(vec.V3) vec.V3 { return vec.V3{} }), vec.New(0, 0, 0), cfg, +1)
	if err != nil {
		t.Fatal(err)
	}
	if line.NumPoints() != 0 {
		t.Errorf("zero field produced %d points", line.NumPoints())
	}
}

func TestTraceBothJoinsHalves(t *testing.T) {
	cfg := Config{Step: 0.1, MaxSteps: 10}
	line, err := TraceBoth(FieldFunc(uniformX), vec.New(0, 0, 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 10 backward points (excluding seed) + 11 forward points.
	if line.NumPoints() != 21 {
		t.Fatalf("joined line has %d points, want 21", line.NumPoints())
	}
	// Points are monotonically increasing in x.
	for i := 1; i < line.NumPoints(); i++ {
		if line.Points[i].X <= line.Points[i-1].X {
			t.Fatalf("joined line not monotone at %d", i)
		}
	}
	// All tangents point +x after the flip.
	for i, tg := range line.Tangents {
		if tg.X <= 0 {
			t.Fatalf("tangent %d = %v, want +x", i, tg)
		}
	}
}

func TestMaxStrength(t *testing.T) {
	cfg := Config{Step: 0.05, MaxSteps: 100}
	line, err := Trace(FieldFunc(radial), vec.New(0.5, 0, 0), cfg, +1)
	if err != nil {
		t.Fatal(err)
	}
	// Strength decays along the radial line, so max is at the seed: 1/0.25.
	want := 4.0
	if math.Abs(line.MaxStrength()-want) > 1e-9 {
		t.Errorf("MaxStrength = %v, want %v", line.MaxStrength(), want)
	}
}

// linesEqual reports whether two lines match sample for sample.
func linesEqual(a, b *Line) bool {
	if a.NumPoints() != b.NumPoints() || a.Closed != b.Closed {
		return false
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] || a.Tangents[i] != b.Tangents[i] || a.Strengths[i] != b.Strengths[i] {
			return false
		}
	}
	return true
}

// refTrace is Trace as this package shipped it before lines were traced
// into slabs, verbatim: a Line of its own per call and five field
// samples per step. It is the oracle of TestTraceMatchesReference.
func refTrace(f Field, seed vec.V3, cfg Config, sign float64) (*Line, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sign >= 0 {
		sign = 1
	} else {
		sign = -1
	}
	line := &Line{}
	p := seed
	for step := 0; step <= cfg.MaxSteps; step++ {
		d, mag := dirAt(f, p)
		if mag < cfg.MinMag || mag == 0 {
			break
		}
		if cfg.Domain != nil && !cfg.Domain(p) {
			break
		}
		line.Points = append(line.Points, p)
		line.Tangents = append(line.Tangents, d.Scale(sign))
		line.Strengths = append(line.Strengths, mag)

		if cfg.CloseLoop && step >= 8 && p.Dist(seed) < cfg.Step {
			line.Closed = true
			break
		}

		// RK4 on dp/ds = sign * v(p)/|v(p)|.
		h := cfg.Step
		k1, m1 := dirAt(f, p)
		if m1 == 0 {
			break
		}
		k2, m2 := dirAt(f, p.Add(k1.Scale(sign*h/2)))
		if m2 == 0 {
			break
		}
		k3, m3 := dirAt(f, p.Add(k2.Scale(sign*h/2)))
		if m3 == 0 {
			break
		}
		k4, m4 := dirAt(f, p.Add(k3.Scale(sign*h)))
		if m4 == 0 {
			break
		}
		delta := k1.Add(k2.Scale(2)).Add(k3.Scale(2)).Add(k4).Scale(sign * h / 6)
		if !delta.IsFinite() || delta.Len() == 0 {
			break
		}
		p = p.Add(delta)
	}
	return line, nil
}

// refTraceBoth is the old TraceBoth, verbatim: two traces copied into a
// third line.
func refTraceBoth(f Field, seed vec.V3, cfg Config) (*Line, error) {
	back, err := refTrace(f, seed, cfg, -1)
	if err != nil {
		return nil, err
	}
	fwd, err := refTrace(f, seed, cfg, +1)
	if err != nil {
		return nil, err
	}
	line := &Line{}
	// Backward half reversed (excluding the seed, which forward holds),
	// with tangents flipped to point along the line's forward direction.
	for i := len(back.Points) - 1; i >= 1; i-- {
		line.Points = append(line.Points, back.Points[i])
		line.Tangents = append(line.Tangents, back.Tangents[i].Neg())
		line.Strengths = append(line.Strengths, back.Strengths[i])
	}
	line.Points = append(line.Points, fwd.Points...)
	line.Tangents = append(line.Tangents, fwd.Tangents...)
	line.Strengths = append(line.Strengths, fwd.Strengths...)
	line.Closed = back.Closed || fwd.Closed
	return line, nil
}

// bitsEqual is linesEqual on the bit patterns, so that a flipped zero
// sign or a NaN cannot pass.
func bitsEqual(a, b *Line) bool {
	if a.NumPoints() != b.NumPoints() || a.Closed != b.Closed ||
		len(a.Tangents) != len(b.Tangents) || len(a.Strengths) != len(b.Strengths) {
		return false
	}
	v3 := func(p, q vec.V3) bool {
		return math.Float64bits(p.X) == math.Float64bits(q.X) &&
			math.Float64bits(p.Y) == math.Float64bits(q.Y) &&
			math.Float64bits(p.Z) == math.Float64bits(q.Z)
	}
	for i := range a.Points {
		if !v3(a.Points[i], b.Points[i]) || !v3(a.Tangents[i], b.Tangents[i]) ||
			math.Float64bits(a.Strengths[i]) != math.Float64bits(b.Strengths[i]) {
			return false
		}
	}
	return true
}

// TestTraceMatchesReference: tracing into a slab — one field sample
// fewer per step, the seed sampled once for both directions, the
// backward half reversed in place — returns the reference tracer's
// lines bit for bit, for every way a line can end: step budget, loop
// closure, weak field, domain exit, a null at the seed, a null met by
// an inner RK4 stage, and a back half of no, one and many samples.
func TestTraceMatchesReference(t *testing.T) {
	// axisNull vanishes on a slab around x = 1, so lines run into a null
	// mid-step.
	axisNull := func(p vec.V3) vec.V3 {
		if math.Abs(p.X-1) < 0.03 {
			return vec.V3{}
		}
		return vec.New(1, 0.3*math.Sin(3*p.X), -0.2)
	}
	halfSpace := func(p vec.V3) bool { return p.X > -0.4 && p.X < 0.9 }
	cases := []struct {
		name  string
		f     func(vec.V3) vec.V3
		cfg   Config
		seeds []vec.V3
	}{
		{"uniform/budget", uniformX, Config{Step: 0.1, MaxSteps: 40}, []vec.V3{vec.New(0, 1, 2)}},
		{"circular/closes", circular, Config{Step: 0.05, MaxSteps: 400, CloseLoop: true},
			[]vec.V3{vec.New(1, 0, 0), vec.New(0.3, 0.2, 1), vec.New(0, 0, 0)}},
		{"radial/weak", radial, Config{Step: 0.05, MaxSteps: 300, MinMag: 0.2},
			[]vec.V3{vec.New(0.5, 0, 0), vec.New(0.1, 0.2, 0.3), vec.New(3, 0, 0), vec.New(0, 0, 0)}},
		{"uniform/domain", uniformX, Config{Step: 0.1, MaxSteps: 100, Domain: halfSpace},
			[]vec.V3{vec.New(0, 0, 0), vec.New(-0.39, 0, 0), vec.New(0.89, 0, 0), vec.New(-0.4, 0, 0), vec.New(2, 0, 0)}},
		{"null/midstep", axisNull, Config{Step: 0.05, MaxSteps: 100},
			[]vec.V3{vec.New(0, 0, 0), vec.New(0.96, 0, 0), vec.New(1.04, 0, 0), vec.New(1, 0, 0), vec.New(1.5, 0, 0)}},
	}
	for _, c := range cases {
		f := FieldFunc(c.f)
		var slab Slab
		type window struct {
			lo, hi int
			closed bool
		}
		var wins []window
		var wantBoth []*Line
		for _, seed := range c.seeds {
			for _, sign := range []float64{+1, -1} {
				want, err := refTrace(f, seed, c.cfg, sign)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Trace(f, seed, c.cfg, sign)
				if err != nil {
					t.Fatal(err)
				}
				if !bitsEqual(got, want) {
					t.Errorf("%s: Trace(%v, %+g): %d points (closed %v), reference %d (closed %v) or samples differ",
						c.name, seed, sign, got.NumPoints(), got.Closed, want.NumPoints(), want.Closed)
				}
			}
			want, err := refTraceBoth(f, seed, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := TraceBoth(f, seed, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(got, want) {
				t.Errorf("%s: TraceBoth(%v): %d points (closed %v), reference %d (closed %v) or samples differ",
					c.name, seed, got.NumPoints(), got.Closed, want.NumPoints(), want.Closed)
			}
			// The same lines appended to one shared slab.
			lo := slab.Len()
			closed := slab.AppendTraceBoth(f, seed, c.cfg)
			wins = append(wins, window{lo, slab.Len(), closed})
			wantBoth = append(wantBoth, want)
		}
		for i, w := range wins {
			l := slab.Line(w.lo, w.hi, w.closed)
			if !bitsEqual(&l, wantBoth[i]) {
				t.Errorf("%s: slab window %d differs from the reference line", c.name, i)
			}
		}
	}
	// A window must not let an append run into its neighbour.
	var slab Slab
	cfg := Config{Step: 0.1, MaxSteps: 5}
	slab.AppendTrace(FieldFunc(uniformX), vec.New(0, 0, 0), cfg, +1)
	mid := slab.Len()
	slab.AppendTrace(FieldFunc(uniformX), vec.New(0, 1, 0), cfg, +1)
	first := slab.Line(0, mid, false)
	first.Points = append(first.Points, vec.New(9, 9, 9))
	if slab.Points[mid] != vec.New(0, 1, 0) {
		t.Error("appending to a window overwrote the next line's first point")
	}
	// Truncate rolls an attempt back.
	slab.Truncate(mid)
	if slab.Len() != mid || len(slab.Tangents) != mid || len(slab.Strengths) != mid {
		t.Errorf("after Truncate(%d): %d/%d/%d samples", mid, slab.Len(), len(slab.Tangents), len(slab.Strengths))
	}
}

func TestTraceBothAllMatchesSerial(t *testing.T) {
	cfg := Config{Step: 0.05, MaxSteps: 100, MinMag: 1e-6}
	var seeds []vec.V3
	for i := 0; i < 32; i++ {
		seeds = append(seeds, vec.New(0.5+float64(i)*0.05, 0.2, 0.1))
	}
	for _, workers := range []int{1, 3, 8} {
		got, err := TraceBothAll(FieldFunc(radial), seeds, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range seeds {
			want, err := TraceBoth(FieldFunc(radial), s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !linesEqual(got[i], want) {
				t.Fatalf("workers=%d: line %d differs from serial TraceBoth", workers, i)
			}
		}
	}
}

func TestTraceBothAllValidatesConfig(t *testing.T) {
	if _, err := TraceBothAll(FieldFunc(uniformX), []vec.V3{{}}, Config{}, 2); err == nil {
		t.Error("accepted invalid config")
	}
	if _, err := TraceBothAll(FieldFunc(uniformX), nil, Config{Step: 0.1, MaxSteps: 1}, 2); err != nil {
		t.Errorf("empty seed set errored: %v", err)
	}
}

// Trace integrates one field line from seed in the given direction
// (+1 with the field, -1 against it) into a slab of its own: the
// one-direction entry point these tests trace through.
func Trace(f Field, seed vec.V3, cfg Config, sign float64) (*Line, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var s Slab
	closed := s.AppendTrace(f, seed, cfg, sign)
	return &Line{Points: s.Points, Tangents: s.Tangents, Strengths: s.Strengths, Closed: closed}, nil
}

// Length returns the polyline arc length.
func (l *Line) Length() float64 {
	var sum float64
	for i := 1; i < len(l.Points); i++ {
		sum += l.Points[i].Dist(l.Points[i-1])
	}
	return sum
}
