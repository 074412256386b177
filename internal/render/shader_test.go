package render

import (
	"fmt"
	"math"
	"testing"
)

// powSamples calls visit with the x the squaring test compares at for
// exponent y = 2^k: the specials; x within four ulps of the fast path's
// lower and upper bounds and of the underflow threshold 2^(-1022/y),
// below which x^y is subnormal; n seeded x over [0, 2]; n/10 seeded x
// spread evenly over the binary exponents from the smallest subnormal
// to 2; and n/100 seeded x with x^y in the two binades below
// 2^-1022, where rounding a square into the subnormals once and
// rounding math.Pow's renormalised square to 53 bits and then into the
// subnormals differ most often.
func powSamples(k, n int, visit func(x float64)) {
	for _, x := range []float64{0, math.SmallestNonzeroFloat64, 1, math.Nextafter(1, 2), math.NaN(), math.Inf(1),
		math.Copysign(0, -1), 2, math.Ldexp(1, -1022), math.MaxFloat64} {
		visit(x)
	}
	y := math.Ldexp(1, k)
	sp := newSpecPower(y)
	for _, edge := range []float64{sp.lo, sp.hi, math.Pow(2, -1022/y)} {
		lo, hi := edge, edge
		for i := 0; i < 4; i++ {
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
		}
		for x := lo; x <= hi; x = math.Nextafter(x, math.Inf(1)) {
			visit(x)
		}
	}
	state := uint64(k)
	unit := func() float64 { // splitmix64, to [0, 1)
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return float64((z^(z>>31))>>11) / (1 << 53)
	}
	for i := 0; i < n; i++ {
		visit(2 * unit())
	}
	for i := 0; i < n/10; i++ {
		visit(math.Ldexp(1+unit(), -1074+int(1076*unit())))
	}
	lo, hi := math.Pow(2, -1024/y), math.Pow(2, -1022/y)
	for i := 0; i < n/100; i++ {
		visit(lo + (hi-lo)*unit())
	}
}

// powMismatches counts the samples for exponent 2^k at which p.pow and
// math.Pow differ in bits, NaN comparing equal to NaN, and reports the
// first few through report.
func powMismatches(p specPower, k, n int, report func(x, got, want float64)) int {
	bad := 0
	powSamples(k, n, func(x float64) {
		got, want := p.pow(x), math.Pow(x, p.y)
		if math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want) {
			return
		}
		if bad++; bad <= 5 && report != nil {
			report(x, got, want)
		}
	})
	return bad
}

// TestSpecPowerMatchesPow: for every exponent the squaring path
// accepts, 2 to 2^maxSquarings, specPower gives math.Pow's bits at
// 10⁷ seeded x over [0, 2] (the specular term's range), at x around
// each bound of the fast path and around the underflow threshold, at
// the special values, and at seeded x over every binary exponent. A
// standing mutant with the lower bound moved down to 2^-40 for x^32 —
// squarings into the subnormal range, which math.Pow rounds twice —
// must fail the same comparison.
func TestSpecPowerMatchesPow(t *testing.T) {
	n := 10_000_000
	if testing.Short() {
		n = 100_000
	}
	for _, y := range []float64{0, 1, 0.5, 3, 32.5, 256, -32, math.NaN(), math.Inf(1)} {
		if p := newSpecPower(y); p.lo <= p.hi {
			t.Errorf("x^%g takes squarings on [%g, %g]; only 2 to 2^%d should", y, p.lo, p.hi, maxSquarings)
		}
	}
	t.Run("mutant", func(t *testing.T) {
		t.Parallel()
		mutant := newSpecPower(32)
		mutant.lo = math.Ldexp(1, -40)
		if powMismatches(mutant, 5, n/10, nil) == 0 {
			t.Error("squaring x^32 down to x = 2^-40 matched math.Pow everywhere: the samples do not reach the underflow range")
		}
	})
	for k := 1; k <= maxSquarings; k++ {
		k, y := k, math.Ldexp(1, k)
		t.Run(fmt.Sprintf("x^%g", y), func(t *testing.T) {
			t.Parallel()
			p := newSpecPower(y)
			if p.k != k || !(p.lo <= p.hi) {
				t.Fatalf("%d squarings on [%g, %g], want %d", p.k, p.lo, p.hi, k)
			}
			powMismatches(p, k, n, func(x, got, want float64) {
				t.Errorf("x = %g (%#x): %g (%#x), math.Pow %g (%#x)",
					x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
			})
		})
	}
}
