package vec

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-12

func approx(a, b float64) bool { return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b)) }

func approxV(a, b V3) bool { return approx(a.X, b.X) && approx(a.Y, b.Y) && approx(a.Z, b.Z) }

func TestAddSub(t *testing.T) {
	a := New(1, 2, 3)
	b := New(4, -5, 6)
	if got := a.Add(b); got != (V3{5, -3, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (V3{-3, 7, -3}) {
		t.Errorf("Sub = %v", got)
	}
}

func TestScaleNeg(t *testing.T) {
	a := New(1, -2, 3)
	if got := a.Scale(2); got != (V3{2, -4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Neg(); got != (V3{-1, 2, -3}) {
		t.Errorf("Neg = %v", got)
	}
}

func TestDotCross(t *testing.T) {
	x := New(1, 0, 0)
	y := New(0, 1, 0)
	z := New(0, 0, 1)
	if got := x.Cross(y); got != z {
		t.Errorf("x cross y = %v, want z", got)
	}
	if got := y.Cross(z); got != x {
		t.Errorf("y cross z = %v, want x", got)
	}
	if got := x.Dot(y); got != 0 {
		t.Errorf("x dot y = %v", got)
	}
}

func TestNorm(t *testing.T) {
	v := New(3, 4, 0)
	n := v.Norm()
	if !approx(n.Len(), 1) {
		t.Errorf("Norm length = %v", n.Len())
	}
	zero := V3{}
	if zero.Norm() != zero {
		t.Errorf("Norm of zero changed the vector")
	}
}

func TestLerp(t *testing.T) {
	a := New(0, 0, 0)
	b := New(2, 4, 8)
	if got := a.Lerp(b, 0.5); got != (V3{1, 2, 4}) {
		t.Errorf("Lerp = %v", got)
	}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
}

func TestComponentAccess(t *testing.T) {
	v := New(7, 8, 9)
	for i, want := range []float64{7, 8, 9} {
		if got := v.Component(i); got != want {
			t.Errorf("Component(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestComponentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Component(3) did not panic")
		}
	}()
	New(0, 0, 0).Component(3)
}

func TestIsFinite(t *testing.T) {
	if !New(1, 2, 3).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if (V3{math.NaN(), 0, 0}).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if (V3{0, math.Inf(1), 0}).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestPerpIsPerpendicular(t *testing.T) {
	f := func(x, y, z float64) bool {
		// Bound magnitudes so the cross product inside Perp cannot overflow.
		v := New(math.Mod(x, 1e6), math.Mod(y, 1e6), math.Mod(z, 1e6))
		p := v.Perp()
		if v.Len2() == 0 {
			return p == V3{1, 0, 0}
		}
		return math.Abs(v.Norm().Dot(p)) < 1e-9 && approx(p.Len(), 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: cross product is perpendicular to both operands.
func TestCrossPerpendicularProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		// Bound magnitudes so the dot-product tolerance is meaningful.
		a := New(math.Mod(ax, 100), math.Mod(ay, 100), math.Mod(az, 100))
		b := New(math.Mod(bx, 100), math.Mod(by, 100), math.Mod(bz, 100))
		c := a.Cross(b)
		tol := 1e-6 * (1 + a.Len()*b.Len())
		return math.Abs(c.Dot(a)) < tol && math.Abs(c.Dot(b)) < tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: |a.b| <= |a||b| (Cauchy-Schwarz).
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := New(math.Mod(ax, 1000), math.Mod(ay, 1000), math.Mod(az, 1000))
		b := New(math.Mod(bx, 1000), math.Mod(by, 1000), math.Mod(bz, 1000))
		return math.Abs(a.Dot(b)) <= a.Len()*b.Len()*(1+1e-12)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLookAtPlacesEyeAtOrigin(t *testing.T) {
	eye := New(1, 2, 3)
	m := LookAt(eye, New(0, 0, 0), New(0, 1, 0))
	if got := m.Apply(eye); !approxV(got, V3{}) {
		t.Errorf("LookAt maps eye to %v, want origin", got)
	}
	// The target should land on the -Z axis in view space.
	got := m.Apply(New(0, 0, 0))
	if !approx(got.X, 0) || !approx(got.Y, 0) || got.Z >= 0 {
		t.Errorf("LookAt maps target to %v, want on -Z axis", got)
	}
}

func TestPerspectiveDepthOrdering(t *testing.T) {
	proj := Perspective(math.Pi/3, 1, 0.1, 100)
	near := proj.Apply(New(0, 0, -0.5))
	far := proj.Apply(New(0, 0, -50))
	if near.Z >= far.Z {
		t.Errorf("perspective depth not monotonic: near %v far %v", near.Z, far.Z)
	}
}
