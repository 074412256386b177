package render

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// Camera combines a look-at view transform with a perspective
// projection and provides world-to-screen mapping for the rasterizer.
type Camera struct {
	Eye    vec.V3
	View   vec.M4
	Proj   vec.M4
	Near   float64
	Far    float64
	Fovy   float64
	Aspect float64
}

// NewCamera constructs a perspective camera at eye looking at target.
// A non-finite eye, target, up, fovy, near or far is refused: such a
// camera has NaN rows, and a ray cast along NaN directions finds a hit
// on [-Inf, +Inf] that its march never leaves.
func NewCamera(eye, target, up vec.V3, fovy, aspect, near, far float64) (Camera, error) {
	if !eye.IsFinite() || !target.IsFinite() || !up.IsFinite() {
		return Camera{}, fmt.Errorf("render: non-finite camera eye %v, target %v or up %v", eye, target, up)
	}
	if !vec.New(fovy, near, far).IsFinite() {
		return Camera{}, fmt.Errorf("render: non-finite camera fovy/near/far %g/%g/%g", fovy, near, far)
	}
	if fovy <= 0 || fovy >= math.Pi {
		return Camera{}, fmt.Errorf("render: fovy %g out of range", fovy)
	}
	if near <= 0 || far <= near {
		return Camera{}, fmt.Errorf("render: bad near/far %g/%g", near, far)
	}
	if eye.Sub(target).Len() == 0 {
		return Camera{}, fmt.Errorf("render: eye and target coincide")
	}
	return Camera{
		Eye:    eye,
		View:   vec.LookAt(eye, target, up),
		Proj:   vec.Perspective(fovy, aspect, near, far),
		Near:   near,
		Far:    far,
		Fovy:   fovy,
		Aspect: aspect,
	}, nil
}

// LookAtBounds places a camera looking at the center of box b from the
// given direction, far enough away that the whole box is in view. It is
// the convenience every example and benchmark uses to frame a data set.
func LookAtBounds(b vec.AABB, dir vec.V3, fovy, aspect float64) (Camera, error) {
	if b.IsEmpty() {
		return Camera{}, fmt.Errorf("render: cannot frame empty bounds")
	}
	center := b.Center()
	radius := b.Diagonal() / 2
	if radius == 0 {
		radius = 1
	}
	dist := radius / math.Tan(fovy/2) * 1.2
	eye := center.Add(dir.Norm().Scale(dist))
	up := vec.New(0, 1, 0)
	if math.Abs(dir.Norm().Dot(up)) > 0.95 {
		up = vec.New(1, 0, 0)
	}
	return NewCamera(eye, center, up, fovy, aspect, dist/100, dist*10)
}

// viewSpace transforms a world point into view space (camera at origin
// looking down -Z). It, project and ViewDir run once per vertex or per
// fragment and take the camera by pointer: a Camera is 300 bytes.
func (c *Camera) viewSpace(p vec.V3) vec.V3 { return c.View.Apply(p) }

// project maps a view-space point to screen coordinates and depth.
// ok is false when the point is on or behind the near plane.
func (c *Camera) project(v vec.V3, w, h int) (sx, sy, depth float64, ok bool) {
	if v.Z >= -c.Near {
		return 0, 0, 0, false
	}
	ndc := c.Proj.Apply(v)
	sx = (ndc.X + 1) / 2 * float64(w)
	sy = (1 - ndc.Y) / 2 * float64(h)
	return sx, sy, ndc.Z, true
}

// WorldToScreen maps a world point directly to screen coordinates.
func (c Camera) WorldToScreen(p vec.V3, w, h int) (sx, sy, depth float64, ok bool) {
	return c.project(c.viewSpace(p), w, h)
}

// ViewDir returns the unit vector from p toward the camera eye.
func (c *Camera) ViewDir(p vec.V3) vec.V3 { return c.Eye.Sub(p).Norm() }

// RayGen is the ray generator of the volume ray caster: the viewing
// rays of one image size, with the terms that do not depend on the
// pixel (tan(fovy/2) and the camera basis) computed once.
type RayGen struct {
	eye, s, u, nf vec.V3
	tan, aspect   float64
	w, h          float64
}

// Rays returns the ray generator for a w x h image.
func (c Camera) Rays(w, h int) RayGen {
	// The view matrix rows hold the camera basis (s, u, -f); its
	// rotation inverse is the transpose.
	return RayGen{
		eye:    c.Eye,
		s:      vec.New(c.View[0], c.View[1], c.View[2]),
		u:      vec.New(c.View[4], c.View[5], c.View[6]),
		nf:     vec.New(c.View[8], c.View[9], c.View[10]), // -f
		tan:    math.Tan(c.Fovy / 2),
		aspect: c.Aspect,
		w:      float64(w),
		h:      float64(h),
	}
}

// Ray returns the world-space origin and unit direction of the viewing
// ray through pixel (px, py).
func (g *RayGen) Ray(px, py int) (origin, dir vec.V3) {
	ndcX := 2*(float64(px)+0.5)/g.w - 1
	ndcY := 1 - 2*(float64(py)+0.5)/g.h
	// View-space direction through the pixel.
	vd := vec.New(ndcX*g.tan*g.aspect, ndcY*g.tan, -1)
	world := g.s.Scale(vd.X).Add(g.u.Scale(vd.Y)).Add(g.nf.Scale(vd.Z))
	return g.eye, world.Norm()
}

// ViewZ returns the view-space z coordinate of a world point (negative
// in front of the camera).
func (c Camera) ViewZ(p vec.V3) float64 { return c.viewSpace(p).Z }

// NDCDepth converts a view-space z (negative in front of the camera)
// to the normalized-device depth stored in the depth buffer, so volume
// marching can compare against rasterized geometry.
func (c Camera) NDCDepth(viewZ float64) float64 {
	n, f := c.Near, c.Far
	return ((f+n)/(n-f)*viewZ + 2*f*n/(n-f)) / -viewZ
}

// DepthRange returns a conservative normalized-device depth interval
// covering every point inside b — the near/far bound of a sort-last
// sub-volume render pass clipped against an octree cell's box
// (Rasterizer.ClipNear/ClipFar). View-space z is affine in world
// position, so its extrema over a box lie at the corners; the corner
// depths are widened by a relative margin so a point projected through
// the independent project() path can never round outside the interval.
// ok is false when any corner reaches the near plane (no bounded
// interval is safe there) or the box is empty.
func (c Camera) DepthRange(b vec.AABB) (near, far float32, ok bool) {
	if b.IsEmpty() {
		return 0, 0, false
	}
	xs := [2]float64{b.Min.X, b.Max.X}
	ys := [2]float64{b.Min.Y, b.Max.Y}
	zs := [2]float64{b.Min.Z, b.Max.Z}
	dMin, dMax := math.Inf(1), math.Inf(-1)
	for i := 0; i < 8; i++ {
		p := vec.New(xs[i&1], ys[(i>>1)&1], zs[(i>>2)&1])
		vz := c.ViewZ(p)
		if vz >= -c.Near {
			return 0, 0, false
		}
		d := c.NDCDepth(vz)
		if d < dMin {
			dMin = d
		}
		if d > dMax {
			dMax = d
		}
	}
	pad := (math.Abs(dMin)+math.Abs(dMax)+(dMax-dMin))*1e-6 + 1e-12
	return float32(dMin - pad), float32(dMax + pad), true
}

// Rect is the pixel rectangle [X0, X1) x [Y0, Y1); it is empty when
// X0 == X1 or Y0 == Y1.
type Rect struct{ X0, Y0, X1, Y1 int }

// ScreenRect returns a conservative rectangle of a w x h image holding
// every pixel whose viewing ray (Rays) can meet b in front of the eye:
// the ray of a pixel outside it misses b or leaves it at t <= 0. It is
// DepthRange's screen-space twin. When every corner of b lies in front
// of the near plane, so does all of b, and b projects inside the convex
// hull of its projected corners; a pixel centre outside the bounding
// box of those corners therefore has a ray that misses b. That box is
// widened by a pixel on each side, far more than the rounding of a ray
// direction or of a projection can move a point. When any corner is on
// or behind the near plane or does not project to a finite point, or b
// is empty, the rectangle is the whole image.
func (c *Camera) ScreenRect(b vec.AABB, w, h int) Rect {
	whole := Rect{0, 0, w, h}
	if b.IsEmpty() {
		return whole
	}
	xs := [2]float64{b.Min.X, b.Max.X}
	ys := [2]float64{b.Min.Y, b.Max.Y}
	zs := [2]float64{b.Min.Z, b.Max.Z}
	sxMin, syMin := math.Inf(1), math.Inf(1)
	sxMax, syMax := math.Inf(-1), math.Inf(-1)
	for i := 0; i < 8; i++ {
		p := vec.New(xs[i&1], ys[(i>>1)&1], zs[(i>>2)&1])
		sx, sy, _, ok := c.project(c.viewSpace(p), w, h)
		if !ok || !vec.New(sx, sy, 0).IsFinite() {
			return whole
		}
		sxMin, sxMax = min(sxMin, sx), max(sxMax, sx)
		syMin, syMax = min(syMin, sy), max(syMax, sy)
	}
	// Pixel x's centre is at x+0.5: every pixel left out lies at least
	// 1.5 pixels from the corners' box.
	return Rect{
		X0: clampPixel(math.Floor(sxMin)-1, w), X1: clampPixel(math.Ceil(sxMax)+1, w),
		Y0: clampPixel(math.Floor(syMin)-1, h), Y1: clampPixel(math.Ceil(syMax)+1, h),
	}
}

// clampPixel clamps a whole-valued screen coordinate to [0, n].
func clampPixel(v float64, n int) int { return int(max(0, min(v, float64(n)))) }
