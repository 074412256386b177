// Package vec provides the small dense linear-algebra types used across
// the visualization pipeline: 3-component vectors, 4x4 transforms,
// axis-aligned boxes, and a simple look-at camera.
//
// All types are plain value types with float64 components. They are
// deliberately allocation-free: every operation returns a new value and
// no method mutates its receiver, so they are safe to share across the
// goroutine-parallel stages of the pipeline.
package vec

import (
	"fmt"
	"math"
)

// V3 is a 3-component double-precision vector. It is used both for
// spatial positions (x, y, z) and for momenta (px, py, pz), matching the
// six-dimensional phase-space coordinates of the beam-dynamics data.
type V3 struct {
	X, Y, Z float64
}

// New returns the vector (x, y, z).
func New(x, y, z float64) V3 { return V3{x, y, z} }

// Add returns v + w.
func (v V3) Add(w V3) V3 { return V3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v V3) Sub(w V3) V3 { return V3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v V3) Scale(s float64) V3 { return V3{s * v.X, s * v.Y, s * v.Z} }

// Neg returns -v.
func (v V3) Neg() V3 { return V3{-v.X, -v.Y, -v.Z} }

// Dot returns the inner product of v and w.
func (v V3) Dot(w V3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v x w.
func (v V3) Cross(w V3) V3 {
	return V3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Len returns the Euclidean norm of v.
func (v V3) Len() float64 { return math.Sqrt(v.Dot(v)) }

// Len2 returns the squared Euclidean norm of v.
func (v V3) Len2() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between v and w.
func (v V3) Dist(w V3) float64 { return v.Sub(w).Len() }

// Norm returns v scaled to unit length. The zero vector is returned
// unchanged so callers need not special-case degenerate tangents.
func (v V3) Norm() V3 {
	l := v.Len()
	if l == 0 {
		return v
	}
	return v.Scale(1 / l)
}

// Lerp returns the linear interpolation (1-t)*v + t*w.
func (v V3) Lerp(w V3, t float64) V3 {
	return V3{
		v.X + t*(w.X-v.X),
		v.Y + t*(w.Y-v.Y),
		v.Z + t*(w.Z-v.Z),
	}
}

// Min returns the component-wise minimum of v and w.
func (v V3) Min(w V3) V3 {
	return V3{math.Min(v.X, w.X), math.Min(v.Y, w.Y), math.Min(v.Z, w.Z)}
}

// Max returns the component-wise maximum of v and w.
func (v V3) Max(w V3) V3 {
	return V3{math.Max(v.X, w.X), math.Max(v.Y, w.Y), math.Max(v.Z, w.Z)}
}

// Abs returns the component-wise absolute value of v.
func (v V3) Abs() V3 {
	return V3{math.Abs(v.X), math.Abs(v.Y), math.Abs(v.Z)}
}

// MaxComponent returns the largest of the three components.
func (v V3) MaxComponent() float64 {
	return math.Max(v.X, math.Max(v.Y, v.Z))
}

// Component returns component i of v, with i in 0..2 ordered X, Y, Z.
func (v V3) Component(i int) float64 {
	switch i {
	case 0:
		return v.X
	case 1:
		return v.Y
	case 2:
		return v.Z
	}
	panic(fmt.Sprintf("vec: component index %d out of range", i))
}

// IsFinite reports whether all components are finite (no NaN or Inf).
func (v V3) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// String implements fmt.Stringer.
func (v V3) String() string { return fmt.Sprintf("(%g, %g, %g)", v.X, v.Y, v.Z) }

// Perp returns an arbitrary unit vector perpendicular to v. It is used
// to start the parallel-transport frame along field lines. For the zero
// vector it returns the X axis.
func (v V3) Perp() V3 {
	if v.Len2() == 0 {
		return V3{1, 0, 0}
	}
	// Cross with the axis least aligned with v to avoid degeneracy.
	a := v.Abs()
	var axis V3
	switch {
	case a.X <= a.Y && a.X <= a.Z:
		axis = V3{1, 0, 0}
	case a.Y <= a.Z:
		axis = V3{0, 1, 0}
	default:
		axis = V3{0, 0, 1}
	}
	return v.Cross(axis).Norm()
}
