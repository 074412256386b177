package vec

import "math"

// AABB is an axis-aligned bounding box, the basic spatial-subdivision
// primitive of the particle octree and of the hexahedral cavity meshes.
// An AABB with Min > Max on any axis is "empty"; Empty() constructs the
// canonical empty box, which absorbs points and boxes via Extend*.
type AABB struct {
	Min, Max V3
}

// Empty returns the canonical empty box (+Inf mins, -Inf maxes).
func Empty() AABB {
	inf := math.Inf(1)
	return AABB{V3{inf, inf, inf}, V3{-inf, -inf, -inf}}
}

// Box returns the AABB spanning min..max.
func Box(min, max V3) AABB { return AABB{min, max} }

// IsEmpty reports whether the box contains no points.
func (b AABB) IsEmpty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// ExtendPoint returns the smallest box containing both b and p.
func (b AABB) ExtendPoint(p V3) AABB {
	return AABB{b.Min.Min(p), b.Max.Max(p)}
}

// ExtendBox returns the smallest box containing both b and o.
func (b AABB) ExtendBox(o AABB) AABB {
	return AABB{b.Min.Min(o.Min), b.Max.Max(o.Max)}
}

// Contains reports whether p lies inside b (inclusive of faces).
func (b AABB) Contains(p V3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Center returns the centroid of b.
func (b AABB) Center() V3 { return b.Min.Add(b.Max).Scale(0.5) }

// Size returns the per-axis extents of b.
func (b AABB) Size() V3 { return b.Max.Sub(b.Min) }

// Volume returns the volume of b, or 0 for an empty box.
func (b AABB) Volume() float64 {
	if b.IsEmpty() {
		return 0
	}
	s := b.Size()
	return s.X * s.Y * s.Z
}

// Diagonal returns the length of the main diagonal.
func (b AABB) Diagonal() float64 { return b.Size().Len() }

// Octant returns the i-th (0..7) child box of the uniform octree split
// of b. Bit 0 selects the upper X half, bit 1 the upper Y half, bit 2
// the upper Z half — the same child indexing used by the octree
// partitioner so that child boxes can be derived without storage.
func (b AABB) Octant(i int) AABB {
	c := b.Center()
	child := b
	if i&1 != 0 {
		child.Min.X = c.X
	} else {
		child.Max.X = c.X
	}
	if i&2 != 0 {
		child.Min.Y = c.Y
	} else {
		child.Max.Y = c.Y
	}
	if i&4 != 0 {
		child.Min.Z = c.Z
	} else {
		child.Max.Z = c.Z
	}
	return child
}

// IntersectRay intersects the ray origin + t*dir with b and returns the
// parametric entry and exit distances. It reports false when the ray
// misses the box. Entry may be negative when the origin is inside.
func (b AABB) IntersectRay(origin, dir V3) (tEnter, tExit float64, hit bool) {
	tEnter = math.Inf(-1)
	tExit = math.Inf(1)
	// Per-axis arrays rather than V3.Component: this runs once per ray
	// of the volume ray caster.
	o3 := [3]float64{origin.X, origin.Y, origin.Z}
	d3 := [3]float64{dir.X, dir.Y, dir.Z}
	lo3 := [3]float64{b.Min.X, b.Min.Y, b.Min.Z}
	hi3 := [3]float64{b.Max.X, b.Max.Y, b.Max.Z}
	for axis := 0; axis < 3; axis++ {
		o, d, lo, hi := o3[axis], d3[axis], lo3[axis], hi3[axis]
		if d == 0 {
			if o < lo || o > hi {
				return 0, 0, false
			}
			continue
		}
		t0 := (lo - o) / d
		t1 := (hi - o) / d
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		if t0 > tEnter {
			tEnter = t0
		}
		if t1 < tExit {
			tExit = t1
		}
		if tEnter > tExit {
			return 0, 0, false
		}
	}
	return tEnter, tExit, true
}
