package beam

import (
	"math"

	"repro/internal/par"
)

// HaloFraction returns the fraction of particles whose transverse
// radius exceeds k times the RMS transverse radius. Halo studies
// conventionally quote the fraction beyond a few RMS radii; the paper's
// point-rendered region is precisely this population.
func HaloFraction(e *Ensemble, k float64) float64 {
	n := e.Len()
	if n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += e.X[i]*e.X[i] + e.Y[i]*e.Y[i]
	}
	rms2 := sum / float64(n)
	threshold2 := k * k * rms2
	count := par.MapReduce(n, 0,
		func() int { return 0 },
		func(c, lo, hi int) int {
			for i := lo; i < hi; i++ {
				if e.X[i]*e.X[i]+e.Y[i]*e.Y[i] > threshold2 {
					c++
				}
			}
			return c
		},
		func(a, b int) int { return a + b },
	)
	return float64(count) / float64(n)
}

// FractionBeyondRadius returns the fraction of particles whose
// transverse radius exceeds r (an absolute threshold, typically a
// multiple of the matched envelope radius). Unlike HaloFraction it is
// insensitive to the growth of the ensemble's own RMS as halo forms.
func FractionBeyondRadius(e *Ensemble, r float64) float64 {
	n := e.Len()
	if n == 0 {
		return 0
	}
	r2 := r * r
	count := par.MapReduce(n, 0,
		func() int { return 0 },
		func(c, lo, hi int) int {
			for i := lo; i < hi; i++ {
				if e.X[i]*e.X[i]+e.Y[i]*e.Y[i] > r2 {
					c++
				}
			}
			return c
		},
		func(a, b int) int { return a + b },
	)
	return float64(count) / float64(n)
}

// FourFoldSymmetry measures how evenly particles populate the four
// transverse quadrants. It returns the maximum relative deviation of
// any quadrant count from the mean; 0 is perfect four-fold symmetry.
// The alternating-gradient channel of Fig 5 produces x/y-mirror
// symmetric beams, so this score stays small throughout the run.
func FourFoldSymmetry(e *Ensemble) float64 {
	var counts [4]int
	for i := 0; i < e.Len(); i++ {
		q := 0
		if e.X[i] >= 0 {
			q |= 1
		}
		if e.Y[i] >= 0 {
			q |= 2
		}
		counts[q]++
	}
	mean := float64(e.Len()) / 4
	if mean == 0 {
		return 0
	}
	worst := 0.0
	for _, c := range counts {
		d := math.Abs(float64(c)-mean) / mean
		if d > worst {
			worst = d
		}
	}
	return worst
}

// Temperature returns a per-particle "temperature" lookup: the
// transverse kinetic measure px^2 + py^2. It is the example dynamic
// property of §2.5 — computed at draw time from the original particle
// data rather than baked into the stored representation.
func Temperature(e *Ensemble) func(orig int64) float64 {
	return func(orig int64) float64 {
		if orig < 0 || orig >= int64(e.Len()) {
			return 0
		}
		return e.Px[orig]*e.Px[orig] + e.Py[orig]*e.Py[orig]
	}
}
