// Package fieldline integrates electric and magnetic field lines
// through sampled vector fields — the streamline-integration core of
// the paper's §3 visualization pipeline. Lines are integrated with
// classical RK4 under arc-length parameterization (the tangent is the
// normalized field), so the geometric step size is uniform regardless
// of field magnitude, and each sample records the local field strength
// for the strength-dependent styling of Figs 6(e) and 10.
package fieldline

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/vec"
)

// Field is a static vector field. Implementations include the
// electric/magnetic adapters over emsim.FieldFrame and the analytic
// fields used in tests.
type Field interface {
	At(p vec.V3) vec.V3
}

// FieldFunc adapts a function to the Field interface.
type FieldFunc func(p vec.V3) vec.V3

// At implements Field.
func (f FieldFunc) At(p vec.V3) vec.V3 { return f(p) }

// Config controls line integration.
type Config struct {
	// Step is the arc-length integration step in world units.
	Step float64
	// MaxSteps bounds each direction of integration.
	MaxSteps int
	// MinMag terminates integration when the local field magnitude
	// drops below it (for electric lines this is reaching a null or a
	// conductor surface where the sampled field fades to zero).
	MinMag float64
	// Domain, when non-nil, terminates integration when it reports
	// false (e.g. leaving the vacuum region).
	Domain func(p vec.V3) bool
	// CloseLoop stops integration when the line returns within Step of
	// its seed after at least 8 steps — magnetic field lines close on
	// themselves.
	CloseLoop bool
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if c.Step <= 0 {
		return fmt.Errorf("fieldline: step %g must be positive", c.Step)
	}
	if c.MaxSteps < 1 {
		return fmt.Errorf("fieldline: max steps %d must be >= 1", c.MaxSteps)
	}
	if c.MinMag < 0 {
		return fmt.Errorf("fieldline: min magnitude %g must be >= 0", c.MinMag)
	}
	return nil
}

// Line is one integrated field line: points, unit tangents, and the
// field magnitude at each point. Points/Tangents/Strengths always have
// equal length.
type Line struct {
	Points    []vec.V3
	Tangents  []vec.V3
	Strengths []float64
	Closed    bool // terminated by loop closure
}

// NumPoints returns the sample count.
func (l *Line) NumPoints() int { return len(l.Points) }

// MaxStrength returns the peak field magnitude along the line.
func (l *Line) MaxStrength() float64 {
	var m float64
	for _, s := range l.Strengths {
		if s > m {
			m = s
		}
	}
	return m
}

// dirAt returns the normalized field direction and magnitude at p.
func dirAt(f Field, p vec.V3) (vec.V3, float64) {
	v := f.At(p)
	mag := v.Len()
	if mag == 0 {
		return vec.V3{}, 0
	}
	return v.Scale(1 / mag), mag
}

// Slab is flat, append-only storage for the samples of many lines: a
// caller that traces thousands of lines (the seeding loop) appends them
// all to one slab and hands out windows into it, where a Line of its
// own per attempt would cost three growing slices each. The three
// slices always have equal length.
type Slab struct {
	Points    []vec.V3
	Tangents  []vec.V3
	Strengths []float64
}

// Len returns the number of samples in the slab.
func (s *Slab) Len() int { return len(s.Points) }

// Truncate drops every sample from index n on — how a caller rolls back
// an attempt it does not keep.
func (s *Slab) Truncate(n int) {
	s.Points, s.Tangents, s.Strengths = s.Points[:n], s.Tangents[:n], s.Strengths[:n]
}

// Line returns samples [lo, hi) as a line. The line is a window into
// the slab, not a copy: it is valid for as long as the slab's arrays
// are, and appending to it reallocates instead of overwriting the
// slab's next line. Take windows once the slab has stopped growing, or
// earlier ones keep superseded arrays alive.
func (s *Slab) Line(lo, hi int, closed bool) Line {
	return Line{
		Points:    s.Points[lo:hi:hi],
		Tangents:  s.Tangents[lo:hi:hi],
		Strengths: s.Strengths[lo:hi:hi],
		Closed:    closed,
	}
}

// AppendTrace integrates a field line from seed in the given direction
// (+1 with the field, -1 against it) using RK4 on the normalized field,
// appending the samples to the slab — the seed itself is the first —
// and reports whether the line closed on itself. cfg must be valid.
func (s *Slab) AppendTrace(f Field, seed vec.V3, cfg Config, sign float64) (closed bool) {
	d, mag := dirAt(f, seed)
	return s.appendTrace(f, seed, d, mag, cfg, sign)
}

// appendTrace is AppendTrace given the field direction and magnitude at
// the seed, which TraceBoth samples once for both directions.
func (s *Slab) appendTrace(f Field, seed, d vec.V3, mag float64, cfg Config, sign float64) (closed bool) {
	if sign >= 0 {
		sign = 1
	} else {
		sign = -1
	}
	p := seed
	for step := 0; step <= cfg.MaxSteps; step++ {
		if step > 0 {
			d, mag = dirAt(f, p)
		}
		if mag < cfg.MinMag || mag == 0 {
			break
		}
		if cfg.Domain != nil && !cfg.Domain(p) {
			break
		}
		s.Points = append(s.Points, p)
		s.Tangents = append(s.Tangents, d.Scale(sign))
		s.Strengths = append(s.Strengths, mag)

		if cfg.CloseLoop && step >= 8 && p.Dist(seed) < cfg.Step {
			return true
		}

		// RK4 on dp/ds = sign * v(p)/|v(p)|. The first stage is the
		// direction just recorded: At is a pure function of p.
		h := cfg.Step
		k1 := d
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
	return false
}

// AppendTraceBoth integrates like TraceBoth, appending the joined line
// to the slab in place: the backward half is traced, reversed where it
// lies (dropping the seed, which the forward half holds, and flipping
// its tangents to point along the line's forward direction), and the
// forward half follows it. cfg must be valid.
func (s *Slab) AppendTraceBoth(f Field, seed vec.V3, cfg Config) (closed bool) {
	d, mag := dirAt(f, seed)
	lo := s.Len()
	closed = s.appendTrace(f, seed, d, mag, cfg, -1)
	if hi := s.Len(); hi > lo {
		for i, j := lo, hi-1; i < j; i, j = i+1, j-1 {
			s.Points[i], s.Points[j] = s.Points[j], s.Points[i]
			s.Tangents[i], s.Tangents[j] = s.Tangents[j], s.Tangents[i]
			s.Strengths[i], s.Strengths[j] = s.Strengths[j], s.Strengths[i]
		}
		s.Truncate(hi - 1)
		for i := lo; i < hi-1; i++ {
			s.Tangents[i] = s.Tangents[i].Neg()
		}
	}
	return s.appendTrace(f, seed, d, mag, cfg, +1) || closed
}

// TraceBothAll integrates one TraceBoth line per seed concurrently on
// par.ForChunks (workers 0 = auto) — lines are independent, so the
// batch scales with cores while result order and every line stay
// identical to serial TraceBoth calls in seed order. The field's At
// must be safe for concurrent calls (the sampled-frame adapters and
// analytic fields are: they only read).
func TraceBothAll(f Field, seeds []vec.V3, cfg Config, workers int) ([]*Line, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lines := make([]*Line, len(seeds))
	errs := make([]error, len(seeds))
	par.ForChunks(len(seeds), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			lines[i], errs[i] = TraceBoth(f, seeds[i], cfg)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return lines, nil
}

// TraceBoth integrates from the seed in both directions and joins the
// two halves into a single line through the seed — the standard way to
// center a streamline on its seed point.
func TraceBoth(f Field, seed vec.V3, cfg Config) (*Line, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var s Slab
	closed := s.AppendTraceBoth(f, seed, cfg)
	return &Line{Points: s.Points, Tangents: s.Tangents, Strengths: s.Strengths, Closed: closed}, nil
}
