// Package volren is the software volume renderer of the hybrid
// pipeline — the stand-in for the texture-mapping-hardware volume
// rendering of §2.1. It ray-casts a density grid through the viewer's
// transfer function with front-to-back compositing, early ray
// termination, and correct interleaving with opaque geometry already
// in the depth buffer (so halo points occlude and are occluded by the
// volume exactly as in Fig 4).
//
// # Empty-space skipping
//
// A beam is a compact body in a mostly empty bounding box, so most
// samples of a plain march read eight zero voxels and composite
// nothing. Each Render therefore scans the grid once into a mask of
// bricks (4 voxels on a side) and walks every ray through it brick by
// brick: in an occupied brick it samples as a plain march does, in an
// empty one it only advances the ray parameter and the sample count.
// The picture, the depth buffer and SampleCount are those of the plain
// march bit for bit (the tests keep that march as their oracle), because
//
//   - the ray parameter advances by the same recurrence t += step
//     through empty and occupied bricks alike, so every sample that is
//     fetched sits at the position the plain march gives it;
//   - a brick is empty only if every voxel within 2 voxels of it is
//     exactly zero (a NaN or a negative voxel is not), which covers the
//     one voxel beyond the brick a trilinear sample reads, clamp-to-edge
//     included, and leaves a further voxel for the rounding of the
//     brick walk;
//   - a trilinear interpolation of eight zeros is exactly zero, and a
//     zero sample is one the plain march drops before the transfer
//     function.
//
// FetchCount over SampleCount is the share of samples that still read
// voxels; on bounds with a flat axis it is all of them.
//
// # Pixels never cast
//
// A pixel outside the grid's screen rectangle (Camera.ScreenRect) is
// never cast. That is exact, not a cull: the rectangle is conservative,
// so such a pixel's ray misses the bounds or leaves them at t <= 0, and
// the march returns on exactly that ray before it writes or counts
// anything. Scanline chunks stay those of the whole frame, each clipped
// to the rectangle, so the split of work between workers does not
// follow the rectangle.
package volren

import (
	"fmt"
	"math"

	"repro/internal/hybrid"
	"repro/internal/par"
	"repro/internal/render"
	"repro/internal/vec"
)

// Renderer ray-casts one density grid.
type Renderer struct {
	Grid *hybrid.Grid
	TF   *hybrid.LinkedTF

	// StepScale is the ray sampling distance as a fraction of the voxel
	// size; 0.5 gives the conventional 2x oversampling.
	StepScale float64

	// SampleCount accumulates how many volume samples the last Render
	// took; it is the cost metric the Fig 1 experiment reports (256^3
	// full-res casting vs 64^3 hybrid casting). Samples stepped over in
	// empty bricks count: the number does not depend on the skipping.
	SampleCount int64
	// FetchCount is how many of the last Render's samples read voxels,
	// the rest having been stepped over in empty bricks. Read-only.
	FetchCount int64
}

// New returns a renderer over the given grid and transfer functions.
func New(grid *hybrid.Grid, tf *hybrid.LinkedTF) (*Renderer, error) {
	if grid == nil || tf == nil {
		return nil, fmt.Errorf("volren: nil grid or transfer function")
	}
	return &Renderer{Grid: grid, TF: tf, StepScale: 0.5}, nil
}

// Render casts one ray per pixel into fb. Pixels already covered by
// opaque geometry composite the volume only in front of that geometry.
// The color result is blended over the existing framebuffer contents.
func (r *Renderer) Render(fb *render.Framebuffer, cam render.Camera) {
	r.SampleCount, r.FetchCount = 0, 0
	voxel := voxelEdge(r.Grid)
	if math.IsInf(voxel, 1) {
		return // a point has nothing to march through
	}
	c := caster{
		fb: fb, near: cam.Near, depth: newDepthRows(&cam), rays: cam.Rays(fb.W, fb.H),
		bounds: r.Grid.Bounds, vol: r.Grid.Sampler(), bricks: newBrickMask(r.Grid), tf: r.TF,
		step: voxel * r.stepScale(), refStep: voxel,
	}

	// A pixel outside the grid's screen rectangle has a ray that misses
	// the bounds, on which castPixel would return without a write. The
	// chunks are the whole frame's, clipped to the rectangle: chunks of
	// the rectangle's rows would move the split off the screen centre,
	// where LookAtBounds puts the grid's centre and a beam's core, and
	// leave one worker most of the samples.
	rect := cam.ScreenRect(r.Grid.Bounds, fb.W, fb.H)
	counts := make([]int64, 2*fb.H) // per scanline: samples, fetches
	par.ForChunks(fb.H, 0, func(lo, hi int) {
		for y := max(lo, rect.Y0); y < min(hi, rect.Y1); y++ {
			var n, f int64
			for x := rect.X0; x < rect.X1; x++ {
				dn, df := c.castPixel(x, y)
				n += dn
				f += df
			}
			counts[2*y], counts[2*y+1] = n, f
		}
	})
	for y := 0; y < fb.H; y++ {
		r.SampleCount += counts[2*y]
		r.FetchCount += counts[2*y+1]
	}
}

// voxelEdge returns the smallest voxel edge of the grid, which the
// sampling distance follows, or +Inf if the bounds have no extent. A
// flat axis has no edge to follow (AABB.Normalize samples it at
// mid-grid).
func voxelEdge(g *hybrid.Grid) float64 {
	size := g.Bounds.Size()
	voxel := math.Inf(1)
	for axis, n := range [3]int{g.Nx, g.Ny, g.Nz} {
		if s := size.Component(axis); s > 0 {
			voxel = min(voxel, s/float64(n))
		}
	}
	return voxel
}

func (r *Renderer) stepScale() float64 {
	if r.StepScale <= 0 {
		return 0.5
	}
	return r.StepScale
}

// brick is the edge of a mask brick in voxels and brickHalo how far a
// brick's footprint is grown before it is tested for emptiness. A
// sample inside a brick reads at most one voxel beyond it
// (hybrid.Sampler), so a halo of 2 leaves a sample free to sit up to a
// whole voxel outside the brick the march believes it is in — many
// orders more than the rounding of the brick walk can misplace it.
const (
	brick     = 4
	brickHalo = 2
)

// brickMask marks the bricks of a grid a ray may step through without
// reading voxels.
type brickMask struct {
	occupied   []bool // (bz*ny+by)*nx+bx
	nx, ny, nz int
	min        [3]float64 // the grid's lower corner, per axis
	size       [3]float64 // world extent of one brick, per axis
}

// newBrickMask scans the grid once. A brick is left unoccupied only if
// every voxel within brickHalo of its footprint is exactly zero; voxels
// outside the grid read as the edge voxel (clamp-to-edge), which the
// grown footprint already holds. NaN and negative voxels are not zero.
// On bounds with a flat axis world position does not determine the
// brick, and the mask is a single occupied brick without extent: the
// march fetches every sample.
func newBrickMask(g *hybrid.Grid) brickMask {
	size := g.Bounds.Size()
	if !(size.X > 0 && size.Y > 0 && size.Z > 0) {
		return brickMask{occupied: []bool{true}, nx: 1, ny: 1, nz: 1}
	}
	m := brickMask{
		nx:  (g.Nx + brick - 1) / brick,
		ny:  (g.Ny + brick - 1) / brick,
		nz:  (g.Nz + brick - 1) / brick,
		min: [3]float64{g.Bounds.Min.X, g.Bounds.Min.Y, g.Bounds.Min.Z},
		size: [3]float64{
			size.X / float64(g.Nx) * brick,
			size.Y / float64(g.Ny) * brick,
			size.Z / float64(g.Nz) * brick},
	}
	m.occupied = make([]bool, m.nx*m.ny*m.nz)
	// Voxel v is in the grown footprint of bricks (v-halo)/brick to
	// (v+halo)/brick. Each voxel row is reduced to a row of bricks
	// first, then stored into the brick rows its y and z touch.
	row := make([]bool, m.nx)
	for z := 0; z < g.Nz; z++ {
		bz0, bz1 := brickSpan(z, m.nz)
		for y := 0; y < g.Ny; y++ {
			any := false
			for x, v := range g.Data[(z*g.Ny+y)*g.Nx:][:g.Nx] {
				if v != 0 {
					bx0, bx1 := brickSpan(x, m.nx)
					row[bx0], row[bx1] = true, true
					any = true
				}
			}
			if !any {
				continue
			}
			by0, by1 := brickSpan(y, m.ny)
			for bz := bz0; bz <= bz1; bz++ {
				for by := by0; by <= by1; by++ {
					dst := m.occupied[(bz*m.ny+by)*m.nx:][:m.nx]
					for bx, o := range row {
						if o {
							dst[bx] = true
						}
					}
				}
			}
			for bx := range row {
				row[bx] = false
			}
		}
	}
	return m
}

// brickSpan returns the first and last of the n bricks along an axis
// whose grown footprint holds voxel v (they differ by at most one).
func brickSpan(v, n int) (lo, hi int) {
	return max(v-brickHalo, 0) / brick, min((v+brickHalo)/brick, n-1)
}

// brickWalk steps one ray through the bricks of a mask, brick by brick
// (a 3-D DDA).
type brickWalk struct {
	idx    int        // index of the current brick in occupied
	next   [3]float64 // ray parameter at which the ray leaves the brick, per axis
	delta  [3]float64 // ray parameter between two brick faces, per axis
	stride [3]int     // idx change per brick crossed, per axis
	left   [3]int     // bricks ahead of the current one, per axis
}

// start places the walk in the brick holding origin + t*dir, a point
// inside the grid.
func (m *brickMask) start(origin, dir vec.V3, t float64) brickWalk {
	var w brickWalk
	n := [3]int{m.nx, m.ny, m.nz}
	stride := [3]int{1, m.nx, m.nx * m.ny}
	o3 := [3]float64{origin.X, origin.Y, origin.Z}
	d3 := [3]float64{dir.X, dir.Y, dir.Z}
	for axis := 0; axis < 3; axis++ {
		o, d := o3[axis], d3[axis]
		lo, size := m.min[axis], m.size[axis]
		w.next[axis] = math.Inf(1)
		if n[axis] == 1 {
			continue // one brick, no face to cross
		}
		b := int(math.Floor((o + t*d - lo) / size))
		b = max(0, min(b, n[axis]-1))
		w.idx += b * stride[axis]
		if d == 0 {
			continue // the ray stays in brick b of this axis
		}
		if d > 0 {
			w.next[axis] = (lo + float64(b+1)*size - o) / d
			w.delta[axis] = size / d
			w.stride[axis] = stride[axis]
			w.left[axis] = n[axis] - 1 - b
		} else {
			w.next[axis] = (lo + float64(b)*size - o) / d
			w.delta[axis] = size / -d
			w.stride[axis] = -stride[axis]
			w.left[axis] = b
		}
	}
	return w
}

// exit returns the ray parameter at which the ray leaves the current
// brick and the axis of the face it leaves through.
func (w *brickWalk) exit() (t float64, axis int) {
	axis = 2
	if w.next[0] <= w.next[1] && w.next[0] <= w.next[2] {
		axis = 0
	} else if w.next[1] <= w.next[2] {
		axis = 1
	}
	return w.next[axis], axis
}

// cross moves the walk through the face on the given axis. Past the
// last brick of an axis the walk stays where it is and that axis never
// exits again, so samples that rounding leaves beyond the computed exit
// of the grid are marched in the edge brick, and a walk always ends.
func (w *brickWalk) cross(axis int) {
	if w.left[axis] == 0 {
		w.next[axis] = math.Inf(1)
		return
	}
	w.left[axis]--
	w.idx += w.stride[axis]
	w.next[axis] += w.delta[axis]
}

// caster holds what one Render's rays share.
type caster struct {
	fb     *render.Framebuffer
	near   float64 // the camera's near plane distance
	depth  depthRows
	rays   render.RayGen
	bounds vec.AABB
	vol    hybrid.Sampler
	bricks brickMask
	tf     *hybrid.LinkedTF
	// step is the sampling distance and refStep the distance the
	// transfer function's opacity refers to.
	step, refStep float64
}

// castPixel marches one ray and blends the result over the pixel. It
// returns the number of volume samples taken and how many of them read
// voxels.
func (c *caster) castPixel(x, y int) (samples, fetches int64) {
	origin, dir := c.rays.Ray(x, y)
	tEnter, tExit, hit := c.bounds.IntersectRay(origin, dir)
	if !hit || tExit <= 0 {
		return 0, 0
	}
	if tEnter < c.near {
		tEnter = c.near
	}
	step := c.step

	// Existing opaque geometry limits the march.
	zGeom := c.fb.DepthAt(x, y)
	geomLimit := math.Inf(1)
	if !math.IsInf(float64(zGeom), 1) {
		// Convert the stored NDC depth back to a ray parameter limit by
		// bisection over view-space depth (monotonic), cheap enough at
		// per-pixel granularity and exact at convergence.
		geomLimit = rayLimitForDepth(&c.depth, origin, dir, float64(zGeom), tEnter, tExit)
	}

	end := math.Min(tExit, geomLimit)
	t := tEnter
	walk := c.bricks.start(origin, dir, t)
	exponent := step / c.refStep // opacity correction for the step length
	var cr, cg, cb, ca float64   // premultiplied accumulation
	// t advances by the one recurrence t += step whether a sample is
	// fetched or stepped over, so every sample sits where a march
	// without the mask would put it.
	for t < end && ca < 0.99 {
		brickEnd, axis := walk.exit()
		lim := min(end, brickEnd)
		if !c.bricks.occupied[walk.idx] {
			// Every voxel such a sample could read is zero, and so is
			// the sample: it would composite nothing.
			for t < lim {
				t += step
				samples++
			}
		} else {
			for ; t < lim && ca < 0.99; t += step {
				d := c.vol.Sample(origin.Add(dir.Scale(t)))
				samples++
				fetches++
				if d <= 0 {
					continue
				}
				s := c.tf.VolumeRGBA(d)
				if s.A <= 0 {
					continue
				}
				alpha := 1 - math.Pow(1-s.A, exponent)
				w := (1 - ca) * alpha
				cr += w * s.R
				cg += w * s.G
				cb += w * s.B
				ca += w
			}
		}
		walk.cross(axis)
	}
	if ca <= 0 {
		return samples, fetches
	}
	// Composite the accumulated (premultiplied) color over the pixel.
	blendOver(c.fb, x, y, cr, cg, cb, ca)
	return samples, fetches
}

// depthRows is what the depth limit reads of a camera: the z and w rows
// of its view matrix and the two coefficients of NDCDepth.
type depthRows struct {
	z, w [4]float64
	a, b float64 // (f+n)/(n-f) and 2*f*n/(n-f)
}

func newDepthRows(cam *render.Camera) depthRows {
	n, f := cam.Near, cam.Far
	return depthRows{
		z: [4]float64(cam.View[8:12]),
		w: [4]float64(cam.View[12:16]),
		a: (f + n) / (n - f),
		b: 2 * f * n / (n - f),
	}
}

// ndc is cam.NDCDepth(cam.ViewZ(p)) operation for operation: the z row
// of M4.Apply with its perspective divide, then NDCDepth.
func (d *depthRows) ndc(p vec.V3) float64 {
	z := d.z[0]*p.X + d.z[1]*p.Y + d.z[2]*p.Z + d.z[3]
	w := d.w[0]*p.X + d.w[1]*p.Y + d.w[2]*p.Z + d.w[3]
	if w != 0 && w != 1 {
		inv := 1 / w
		z = z * inv
	}
	return (d.a*z + d.b) / -z
}

// rayLimitForDepth finds the ray parameter whose NDC depth equals
// zNDC, by bisection over [tLo, tHi].
func rayLimitForDepth(d *depthRows, origin, dir vec.V3, zNDC, tLo, tHi float64) float64 {
	// Depth is increasing in t (farther along the ray = deeper).
	lo, hi := tLo, tHi
	if d.ndc(origin.Add(dir.Scale(hi))) <= zNDC {
		return hi // geometry is behind the volume exit
	}
	if d.ndc(origin.Add(dir.Scale(lo))) >= zNDC {
		return lo // geometry is in front of the volume entry
	}
	for i := 0; i < 32; i++ {
		mid := (lo + hi) / 2
		if d.ndc(origin.Add(dir.Scale(mid))) < zNDC {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// blendOver composites premultiplied (cr,cg,cb,ca) over pixel (x,y).
func blendOver(fb *render.Framebuffer, x, y int, cr, cg, cb, ca float64) {
	i := (y*fb.W + x) * 4
	fb.Color[i] = float32(cr) + fb.Color[i]*float32(1-ca)
	fb.Color[i+1] = float32(cg) + fb.Color[i+1]*float32(1-ca)
	fb.Color[i+2] = float32(cb) + fb.Color[i+2]*float32(1-ca)
	fb.Color[i+3] = float32(ca) + fb.Color[i+3]*float32(1-ca)
}

// PointAttr computes a scalar property for the halo point with the
// given original particle index — the §2.5 dynamic-coloring hook
// ("points could be drawn ... based on some dynamically calculated
// property that the scientist is interested in, such as temperature or
// emittance").
type PointAttr func(orig int64) float64

// RenderHybridDynamic renders like RenderHybrid but colors each drawn
// halo point by attr through attrMap, normalized over the selected
// points. "Volume-based rendering, because it is limited to
// pre-calculated data, cannot allow dynamic changes like these" — only
// the point half of the image restyles.
func RenderHybridDynamic(rep *hybrid.Representation, tf *hybrid.LinkedTF,
	fb *render.Framebuffer, cam render.Camera, pointSize float64,
	attr PointAttr, attrMap hybrid.ColorMap) (*render.Rasterizer, *Renderer, error) {

	if attr == nil {
		return nil, nil, fmt.Errorf("volren: nil point attribute")
	}
	if len(rep.OrigIndex) != len(rep.Points) {
		return nil, nil, fmt.Errorf("volren: representation lacks original indices (%d vs %d points)",
			len(rep.OrigIndex), len(rep.Points))
	}
	sel := rep.SelectPoints(tf)
	// Normalize the attribute over the drawn set so the full color ramp
	// is used regardless of units.
	lo, hi := math.Inf(1), math.Inf(-1)
	vals := make([]float64, len(sel))
	for k, i := range sel {
		v := attr(rep.OrigIndex[i])
		vals[k] = v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	rast := render.NewRasterizer(fb, cam)
	rast.Mode = render.BlendOpaque
	for k, i := range sel {
		c := attrMap.Eval((vals[k] - lo) / span)
		c.A = 1
		rast.DrawPoint(rep.Points[i], pointSize, c)
	}
	vr, err := New(rep.Volume, tf)
	if err != nil {
		return nil, nil, err
	}
	vr.Render(fb, cam)
	return rast, vr, nil
}

// PointPassOptions bounds a halo-point pass to a sub-range of a
// frame's points — the worker-side render of the sort-last
// distributed path, where each fleet member draws one contiguous
// octree-ordered slice of the frame's point set.
type PointPassOptions struct {
	// Offset is the global index of the pass's first point: point
	// selection hashes global indices (SelectPointsOffset), so a
	// sub-range pass draws exactly the points the whole frame's pass
	// would draw from that range.
	Offset int
	// Clip bounds the pass to the depth slab of the points' own
	// bounding box (Camera.DepthRange over the sub-volume), the IceT
	// sort-last idiom: a partition can never write outside its depth
	// interval. The interval is conservative, so clipping changes no
	// pixel of a pass that only draws its own points.
	Clip bool
}

// RenderPointPass draws the halo-point half of RenderHybrid — the
// depth-writing opaque splats selected by the point transfer function
// — and returns the rasterizer holding the pass stats. The splats are
// drawn by DrawPoint on the calling goroutine in selection order; the
// pass allocates only its rasterizer and the selection. The volume
// pass is not run; rep.Volume may be nil. Splitting a frame's points
// into contiguous sub-ranges and running one pass per range (each at
// its global Offset) writes, across all partial framebuffers, exactly
// the fragments the undivided pass writes.
func RenderPointPass(rep *hybrid.Representation, tf *hybrid.LinkedTF,
	fb *render.Framebuffer, cam render.Camera, pointSize float64, opaquePoints bool,
	opt PointPassOptions) *render.Rasterizer {

	rast := render.NewRasterizer(fb, cam)
	rast.Mode = render.BlendOpaque
	if opt.Clip && len(rep.Points) > 0 {
		box := vec.Empty()
		for _, p := range rep.Points {
			box = box.ExtendPoint(p)
		}
		if near, far, ok := cam.DepthRange(box); ok {
			rast.ClipDepth, rast.ClipNear, rast.ClipFar = true, near, far
		}
	}
	for _, i := range rep.SelectPointsOffset(tf, opt.Offset) {
		d := tf.MapDensity(float64(rep.PointDensity[i]))
		c := tf.Color.Eval(d)
		if !opaquePoints {
			c.A = 0.35 + 0.65*d
		} else {
			c.A = 1
		}
		rast.DrawPoint(rep.Points[i], pointSize, c)
	}
	return rast
}

// RenderHybrid renders a hybrid representation exactly as the paper's
// viewer does: the halo points selected by the point transfer function
// are drawn first as depth-writing splats (serially, by
// RenderPointPass), then the density volume is ray-cast in parallel in
// front of and behind them (§2.4, Fig 4). pointSize is the
// splat radius in pixels; opaquePoints matches Fig 4's "points shown
// here are completely opaque" mode, otherwise points modulate alpha by
// their leaf density through the color map.
func RenderHybrid(rep *hybrid.Representation, tf *hybrid.LinkedTF,
	fb *render.Framebuffer, cam render.Camera, pointSize float64, opaquePoints bool) (*render.Rasterizer, *Renderer, error) {

	rast := RenderPointPass(rep, tf, fb, cam, pointSize, opaquePoints, PointPassOptions{})

	vr, err := New(rep.Volume, tf)
	if err != nil {
		return nil, nil, err
	}
	vr.Render(fb, cam)
	return rast, vr, nil
}

// RenderStill renders a hybrid representation from the given view
// direction into a fresh w x h framebuffer with the standard
// experiment camera (LookAtBounds over the representation's bounds),
// returning the frame and both renderer stat blocks. It is the
// one-call render path shared by the core façade, the remote service's
// thin-client mode, and the viewer — all of which must produce
// bit-identical images for the same representation and TF.
func RenderStill(rep *hybrid.Representation, tf *hybrid.LinkedTF, w, h int, viewDir vec.V3) (*render.Framebuffer, *render.Rasterizer, *Renderer, error) {
	fb, err := render.NewFramebuffer(w, h)
	if err != nil {
		return nil, nil, nil, err
	}
	cam, err := render.LookAtBounds(rep.Bounds, viewDir, math.Pi/3, float64(w)/float64(h))
	if err != nil {
		return nil, nil, nil, err
	}
	rast, vr, err := RenderHybrid(rep, tf, fb, cam, 1.5, false)
	if err != nil {
		return nil, nil, nil, err
	}
	return fb, rast, vr, nil
}
