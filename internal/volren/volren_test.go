package volren

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/hybrid"
	"repro/internal/octree"
	"repro/internal/render"
	"repro/internal/vec"
)

// setVoxel stores a voxel value; coordinates must be in range.
func setVoxel(g *hybrid.Grid, x, y, z int, v float32) { g.Data[(z*g.Ny+y)*g.Nx+x] = v }

// grayMap is a linear grayscale ramp.
func grayMap() hybrid.ColorMap {
	return hybrid.ColorMap{Stops: []hybrid.RGBA{{A: 1}, {R: 1, G: 1, B: 1, A: 1}}}
}

// pixelRay is the viewing ray through pixel (px, py) of a w x h image.
func pixelRay(cam render.Camera, px, py, w, h int) (origin, dir vec.V3) {
	g := cam.Rays(w, h)
	return g.Ray(px, py)
}

// solidGrid returns a grid with a dense ball in the middle.
func solidGrid(t *testing.T, n int) *hybrid.Grid {
	t.Helper()
	g, err := hybrid.NewGrid(n, n, n, vec.Box(vec.New(-1, -1, -1), vec.New(1, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				fx := (float64(x)+0.5)/float64(n)*2 - 1
				fy := (float64(y)+0.5)/float64(n)*2 - 1
				fz := (float64(z)+0.5)/float64(n)*2 - 1
				if fx*fx+fy*fy+fz*fz < 0.5 {
					setVoxel(g, x, y, z, 1)
				}
			}
		}
	}
	return g
}

func testTF(t *testing.T) *hybrid.LinkedTF {
	t.Helper()
	vol, err := hybrid.StepRamp(0.05, 0.2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := hybrid.NewLinkedTF(vol, grayMap(), 0.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return tf
}

func testCam(t *testing.T) render.Camera {
	t.Helper()
	cam, err := render.NewCamera(vec.New(0, 0, 4), vec.New(0, 0, 0), vec.New(0, 1, 0),
		math.Pi/3, 1, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	return cam
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, testTF(t)); err == nil {
		t.Error("accepted nil grid")
	}
	if _, err := New(solidGrid(t, 8), nil); err == nil {
		t.Error("accepted nil TF")
	}
}

func TestRenderCoversBall(t *testing.T) {
	r, err := New(solidGrid(t, 16), testTF(t))
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := render.NewFramebuffer(64, 64)
	r.Render(fb, testCam(t))
	// Center pixel must be lit, far corner must not.
	if fb.At(32, 32).A == 0 {
		t.Error("ball center not rendered")
	}
	if fb.At(1, 1).A != 0 {
		t.Error("empty corner rendered")
	}
	if r.SampleCount == 0 {
		t.Error("no samples counted")
	}
}

func TestRenderRespectsOpaqueGeometry(t *testing.T) {
	grid := solidGrid(t, 16)
	tf := testTF(t)
	cam := testCam(t)

	// Frame A: geometry in FRONT of the volume (at z = +0.9 toward the
	// camera): the red point should dominate the center pixel.
	fbA, _ := render.NewFramebuffer(64, 64)
	rastA := render.NewRasterizer(fbA, cam)
	red := hybrid.RGBA{R: 1, A: 1}
	rastA.DrawPoint(vec.New(0, 0, 0.95), 2, red)
	rA, _ := New(grid, tf)
	rA.Render(fbA, cam)

	// Frame B: geometry BEHIND the volume (z = -0.95): volume should
	// attenuate the red.
	fbB, _ := render.NewFramebuffer(64, 64)
	rastB := render.NewRasterizer(fbB, cam)
	rastB.DrawPoint(vec.New(0, 0, -0.95), 2, red)
	rB, _ := New(grid, tf)
	rB.Render(fbB, cam)

	frontRed := fbA.At(32, 32).R
	backRed := fbB.At(32, 32).R
	if frontRed <= backRed {
		t.Errorf("front-point red %v <= back-point red %v; volume/geometry interleaving wrong",
			frontRed, backRed)
	}
}

func TestEarlyTerminationReducesSamples(t *testing.T) {
	grid := solidGrid(t, 16)
	// Fully opaque TF terminates rays quickly.
	volHi, _ := hybrid.StepRamp(0.01, 0.02, 1.0)
	tfHi, _ := hybrid.NewLinkedTF(volHi, grayMap(), 1.0, 0.3)
	// Nearly transparent TF marches every ray through.
	volLo, _ := hybrid.StepRamp(0.01, 0.02, 0.02)
	tfLo, _ := hybrid.NewLinkedTF(volLo, grayMap(), 0.02, 0.3)

	cam := testCam(t)
	fb1, _ := render.NewFramebuffer(32, 32)
	r1, _ := New(grid, tfHi)
	r1.Render(fb1, cam)
	fb2, _ := render.NewFramebuffer(32, 32)
	r2, _ := New(grid, tfLo)
	r2.Render(fb2, cam)
	if r1.SampleCount >= r2.SampleCount {
		t.Errorf("opaque TF took %d samples, transparent %d; early termination missing",
			r1.SampleCount, r2.SampleCount)
	}
}

func TestSampleCountScalesWithResolution(t *testing.T) {
	// Casting a higher-resolution grid costs proportionally more
	// samples — the heart of the Fig 1 volume-vs-hybrid comparison.
	cam := testCam(t)
	tf := testTF(t)
	small, _ := New(solidGrid(t, 8), tf)
	big, _ := New(solidGrid(t, 32), tf)
	fb1, _ := render.NewFramebuffer(32, 32)
	small.Render(fb1, cam)
	fb2, _ := render.NewFramebuffer(32, 32)
	big.Render(fb2, cam)
	ratio := float64(big.SampleCount) / float64(small.SampleCount)
	if ratio < 2 {
		t.Errorf("32^3 grid took only %.2fx the samples of 8^3", ratio)
	}
}

// clusterRep extracts a hybrid representation from n seeded points, 80%
// in a Gaussian core and 20% uniform over [-1,1]³, returning it with
// the points (OrigIndex indexes them).
func clusterRep(t testing.TB, seed int64, n, volRes int, budget int64) (*hybrid.Representation, []vec.V3) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := make([]vec.V3, n)
	for i := range pts {
		if rng.Float64() < 0.8 {
			pts[i] = vec.New(rng.NormFloat64()*0.2, rng.NormFloat64()*0.2, rng.NormFloat64()*0.2)
		} else {
			pts[i] = vec.New(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1)
		}
	}
	tree, err := octree.Build(pts, octree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := hybrid.Extract(tree, hybrid.ExtractConfig{VolumeRes: volRes, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	return rep, pts
}

// heatTF is the hybrid tests' transfer-function pair: a heat map over a
// log domain with the point/volume boundary at the extract threshold.
func heatTF(t testing.TB, rep *hybrid.Representation) *hybrid.LinkedTF {
	t.Helper()
	vol, err := hybrid.StepRamp(0.3, 0.6, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := hybrid.NewLinkedTF(vol, hybrid.HeatMap(), 0.5, float64(rep.Threshold/rep.MaxLeafD))
	if err != nil {
		t.Fatal(err)
	}
	tf.Domain = hybrid.LogDomain(1e4)
	return tf
}

func TestRenderHybridEndToEnd(t *testing.T) {
	// Build a small hybrid representation and render it.
	rep, _ := clusterRep(t, 1, 20000, 16, 4000)
	tf := heatTF(t, rep)
	fb, _ := render.NewFramebuffer(64, 64)
	cam, err := render.LookAtBounds(rep.Bounds, vec.New(0.3, 0.2, 1), math.Pi/3, 1)
	if err != nil {
		t.Fatal(err)
	}
	rast, vr, err := RenderHybrid(rep, tf, fb, cam, 1.5, true)
	if err != nil {
		t.Fatal(err)
	}
	if rast.PointCount == 0 {
		t.Error("no points drawn")
	}
	if vr.SampleCount == 0 {
		t.Error("no volume samples")
	}
	if fb.CoveredPixels(0.01) == 0 {
		t.Error("hybrid render produced a black frame")
	}
}

func TestJitterChangesNothingStructural(t *testing.T) {
	grid := solidGrid(t, 16)
	tf := testTF(t)
	cam := testCam(t)
	r1, _ := New(grid, tf)
	fb1, _ := render.NewFramebuffer(32, 32)
	r1.Render(fb1, cam)
	r2, _ := New(grid, tf)
	r2.Jitter = true
	fb2, _ := render.NewFramebuffer(32, 32)
	r2.Render(fb2, cam)
	// Jitter must not change which pixels are covered, only shading.
	a := fb1.CoveredPixels(0.01)
	b := fb2.CoveredPixels(0.01)
	if a == 0 || math.Abs(float64(a-b)) > float64(a)/5 {
		t.Errorf("jitter changed coverage: %d vs %d", a, b)
	}
}

func TestRenderHybridDynamicColoring(t *testing.T) {
	// Build a hybrid representation whose points carry original indices.
	rep, pts := clusterRep(t, 5, 10000, 8, 2000)
	if len(rep.OrigIndex) != rep.NumPoints() {
		t.Fatalf("extract kept %d orig indices for %d points", len(rep.OrigIndex), rep.NumPoints())
	}
	tf := testTF(t)
	cam, err := render.LookAtBounds(rep.Bounds, vec.New(0.3, 0.2, 1), math.Pi/3, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Attribute: x coordinate of the ORIGINAL point; color map red-blue.
	attr := func(orig int64) float64 { return pts[orig].X }
	rb := hybrid.ColorMap{Stops: []hybrid.RGBA{{R: 1, A: 1}, {B: 1, A: 1}}}
	fb, _ := render.NewFramebuffer(96, 96)
	rast, _, err := RenderHybridDynamic(rep, tf, fb, cam, 1.5, attr, rb)
	if err != nil {
		t.Fatal(err)
	}
	if rast.PointCount == 0 {
		t.Fatal("no points drawn")
	}
	// Left half of the image should skew red, right half blue (camera
	// roughly looks down -z, x maps left-to-right).
	var leftR, leftB, rightR, rightB float64
	for y := 0; y < 96; y++ {
		for x := 0; x < 96; x++ {
			c := fb.At(x, y)
			if x < 48 {
				leftR += c.R
				leftB += c.B
			} else {
				rightR += c.R
				rightB += c.B
			}
		}
	}
	if leftR <= leftB || rightB <= rightR {
		t.Errorf("dynamic coloring not spatially correlated: left(R=%.1f,B=%.1f) right(R=%.1f,B=%.1f)",
			leftR, leftB, rightR, rightB)
	}
}

// TestRenderHybridDynamicNaNAttribute: an attribute that is NaN for one
// drawn point (a particle with a NaN momentum) colors that point with
// the first stop of the map instead of panicking, and every selected
// point is still drawn.
func TestRenderHybridDynamicNaNAttribute(t *testing.T) {
	rep, pts := clusterRep(t, 5, 10000, 8, 2000)
	tf := testTF(t)
	sel := rep.SelectPoints(tf)
	if len(sel) < 2 {
		t.Fatalf("only %d points selected", len(sel))
	}
	cam, err := render.LookAtBounds(rep.Bounds, vec.New(0.3, 0.2, 1), math.Pi/3, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := rep.OrigIndex[sel[len(sel)/2]]
	attr := func(orig int64) float64 {
		if orig == bad {
			return math.NaN()
		}
		return pts[orig].X
	}
	rb := hybrid.ColorMap{Stops: []hybrid.RGBA{{R: 1, A: 1}, {B: 1, A: 1}}}
	fb, _ := render.NewFramebuffer(64, 64)
	rast, _, err := RenderHybridDynamic(rep, tf, fb, cam, 1.5, attr, rb)
	if err != nil {
		t.Fatal(err)
	}
	if rast.PointCount != int64(len(sel)) {
		t.Errorf("drew %d points, want %d", rast.PointCount, len(sel))
	}
}

// TestRenderPointPassAllocates pins the point pass's allocations on a
// frame of about 20k stored points, with and without the depth clip:
// the splats are drawn one by one, so the pass allocates only what it
// returns or must hold for the whole pass.
func TestRenderPointPassAllocates(t *testing.T) {
	rep, _ := clusterRep(t, 3, 100000, 16, 20000)
	if len(rep.Points) < 15000 {
		t.Fatalf("frame holds %d points, want about 20k", len(rep.Points))
	}
	tf := heatTF(t, rep)
	cam, err := render.LookAtBounds(rep.Bounds, vec.New(0.3, 0.2, 1), math.Pi/3, 1)
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := render.NewFramebuffer(160, 160)
	const allowed = 2 // the returned *render.Rasterizer, and the selection slice (SelectPointsOffset)
	for _, clip := range []bool{false, true} {
		var drawn int64
		allocs := testing.AllocsPerRun(5, func() {
			rast := RenderPointPass(rep, tf, fb, cam, 1.5, false, PointPassOptions{Clip: clip})
			drawn = rast.PointCount
		})
		if drawn < 1000 {
			t.Fatalf("clip=%v: pass drew only %d points", clip, drawn)
		}
		if allocs > allowed {
			t.Errorf("clip=%v: RenderPointPass allocates %v times per call, want at most %d", clip, allocs, allowed)
		}
	}
}

func TestRenderHybridDynamicValidation(t *testing.T) {
	rep := &hybrid.Representation{Points: make([]vec.V3, 3)}
	tf := testTF(t)
	fb, _ := render.NewFramebuffer(8, 8)
	cam := testCam(t)
	if _, _, err := RenderHybridDynamic(rep, tf, fb, cam, 1, nil, grayMap()); err == nil {
		t.Error("nil attribute accepted")
	}
	attr := func(int64) float64 { return 0 }
	if _, _, err := RenderHybridDynamic(rep, tf, fb, cam, 1, attr, grayMap()); err == nil {
		t.Error("representation without orig indices accepted")
	}
}

// referenceRender is the ray march as it was before the brick mask,
// kept as the oracle: one goroutine, a fresh sampler and a fresh ray
// generator per pixel. Only the voxel size is Render's (voxelEdge: the
// smallest non-flat axis), so that flat bounds have an oracle too; on
// other bounds it is the old minimum of three. It returns the sample
// count. referenceVisit, when set, is called with
// the position of every sample the reference takes.
var referenceVisit func(p vec.V3)

func referenceRender(r *Renderer, fb *render.Framebuffer, cam render.Camera) int64 {
	voxel := voxelEdge(r.Grid)
	if math.IsInf(voxel, 1) {
		return 0
	}
	step := voxel * r.stepScale()
	refStep := voxel
	var total int64
	for y := 0; y < fb.H; y++ {
		for x := 0; x < fb.W; x++ {
			total += referenceCastPixel(r, fb, cam, x, y, step, refStep)
		}
	}
	return total
}

func referenceCastPixel(r *Renderer, fb *render.Framebuffer, cam render.Camera, x, y int, step, refStep float64) int64 {
	origin, dir := pixelRay(cam, x, y, fb.W, fb.H)
	vol := r.Grid.Sampler()
	tEnter, tExit, hit := r.Grid.Bounds.IntersectRay(origin, dir)
	if !hit || tExit <= 0 {
		return 0
	}
	if tEnter < cam.Near {
		tEnter = cam.Near
	}
	if r.Jitter {
		// Deterministic per-pixel jitter from a hash of the coordinates.
		h := uint32(x)*374761393 + uint32(y)*668265263
		h = (h ^ (h >> 13)) * 1274126177
		tEnter += step * float64(h%1024) / 1024
	}

	// Existing opaque geometry limits the march.
	zGeom := fb.DepthAt(x, y)
	geomLimit := math.Inf(1)
	if !math.IsInf(float64(zGeom), 1) {
		geomLimit = refRayLimitForDepth(cam, origin, dir, float64(zGeom), tEnter, tExit)
	}

	end := math.Min(tExit, geomLimit)
	var cr, cg, cb, ca float64 // premultiplied accumulation
	samples := int64(0)
	for t := tEnter; t < end && ca < 0.99; t += step {
		p := origin.Add(dir.Scale(t))
		d := vol.Sample(p)
		samples++
		if referenceVisit != nil {
			referenceVisit(p)
		}
		if d <= 0 {
			continue
		}
		s := r.TF.VolumeRGBA(d)
		if s.A <= 0 {
			continue
		}
		// Opacity correction for the step length.
		alpha := 1 - math.Pow(1-s.A, step/refStep)
		w := (1 - ca) * alpha
		cr += w * s.R
		cg += w * s.G
		cb += w * s.B
		ca += w
	}
	if ca <= 0 {
		return samples
	}
	blendOver(fb, x, y, cr, cg, cb, ca)
	return samples
}

// refRayLimitForDepth is the reference's own depth limit, the bisection
// through Camera.NDCDepth and Camera.ViewZ that Render ran before it
// read the view matrix's z and w rows itself.
func refRayLimitForDepth(cam render.Camera, origin, dir vec.V3, zNDC, tLo, tHi float64) float64 {
	// Depth is increasing in t (farther along the ray = deeper).
	lo, hi := tLo, tHi
	if cam.NDCDepth(cam.ViewZ(origin.Add(dir.Scale(hi)))) <= zNDC {
		return hi // geometry is behind the volume exit
	}
	if cam.NDCDepth(cam.ViewZ(origin.Add(dir.Scale(lo)))) >= zNDC {
		return lo // geometry is in front of the volume entry
	}
	for i := 0; i < 32; i++ {
		mid := (lo + hi) / 2
		if cam.NDCDepth(cam.ViewZ(origin.Add(dir.Scale(mid)))) < zNDC {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func cloneFB(fb *render.Framebuffer) *render.Framebuffer {
	return &render.Framebuffer{
		W: fb.W, H: fb.H,
		Color: append([]float32(nil), fb.Color...),
		Depth: append([]float32(nil), fb.Depth...),
	}
}

// sameBits reports the first index at which two float32 slices differ
// bit for bit (NaN payloads included), or -1.
func sameBits(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// bricksByDefinition is the brick mask written down from its
// definition, one brick at a time: a brick is occupied if any voxel
// within brickHalo of its footprint, read clamp-to-edge, is not exactly
// zero. It shares nothing with newBrickMask but the two constants.
type bricksByDefinition struct {
	occupied []bool
	n        [3]int
	min      vec.V3
	size     vec.V3 // world extent of one brick; zero on flat bounds
}

func bricksOf(g *hybrid.Grid) bricksByDefinition {
	size := g.Bounds.Size()
	if !(size.X > 0 && size.Y > 0 && size.Z > 0) {
		return bricksByDefinition{occupied: []bool{true}, n: [3]int{1, 1, 1}}
	}
	m := bricksByDefinition{
		n:    [3]int{(g.Nx + brick - 1) / brick, (g.Ny + brick - 1) / brick, (g.Nz + brick - 1) / brick},
		min:  g.Bounds.Min,
		size: vec.New(size.X/float64(g.Nx)*brick, size.Y/float64(g.Ny)*brick, size.Z/float64(g.Nz)*brick),
	}
	clamp := func(v, n int) int { return max(0, min(v, n-1)) }
	for bz := 0; bz < m.n[2]; bz++ {
		for by := 0; by < m.n[1]; by++ {
			for bx := 0; bx < m.n[0]; bx++ {
				occ := false
				for z := bz*brick - brickHalo; z < (bz+1)*brick+brickHalo; z++ {
					for y := by*brick - brickHalo; y < (by+1)*brick+brickHalo; y++ {
						for x := bx*brick - brickHalo; x < (bx+1)*brick+brickHalo; x++ {
							if g.At(clamp(x, g.Nx), clamp(y, g.Ny), clamp(z, g.Nz)) != 0 {
								occ = true
							}
						}
					}
				}
				m.occupied = append(m.occupied, occ)
			}
		}
	}
	return m
}

// fetchBounds classifies a sample position by the bricks it lies in: in
// an occupied brick for certain (the march must fetch it), or possibly
// (it may). Only a position within a billionth of a brick of a brick
// face, where the rounding of the brick walk decides, lies in more than
// one.
func (m *bricksByDefinition) fetchBounds(p vec.V3) (must, may bool) {
	var cand [3][2]int
	for axis := 0; axis < 3; axis++ {
		size := m.size.Component(axis)
		if size == 0 {
			continue // flat bounds: the one brick
		}
		rel := (p.Component(axis) - m.min.Component(axis)) / size
		for k, eps := range [2]float64{-1e-9, 1e-9} {
			cand[axis][k] = max(0, min(int(math.Floor(rel+eps)), m.n[axis]-1))
		}
	}
	must = true
	for _, bz := range cand[2] {
		for _, by := range cand[1] {
			for _, bx := range cand[0] {
				occ := m.occupied[(bz*m.n[1]+by)*m.n[0]+bx]
				must = must && occ
				may = may || occ
			}
		}
	}
	return must, may
}

// checkAgainstReference renders with r into a copy of base and demands
// the reference's picture, depth and sample count, and a FetchCount that
// is the number of reference samples in occupied bricks: a ray walked
// through the wrong bricks either loses pixels or fetches what it need
// not. It returns the renderer's picture.
func checkAgainstReference(t *testing.T, r *Renderer, base *render.Framebuffer, cam render.Camera) *render.Framebuffer {
	t.Helper()
	bricks := bricksOf(r.Grid)
	var mustFetch, mayFetch int64
	referenceVisit = func(p vec.V3) {
		must, may := bricks.fetchBounds(p)
		if must {
			mustFetch++
		}
		if may {
			mayFetch++
		}
	}
	want := cloneFB(base)
	wantSamples := referenceRender(r, want, cam)
	referenceVisit = nil
	got := cloneFB(base)
	r.Render(got, cam)
	if i := sameBits(got.Color, want.Color); i >= 0 {
		t.Errorf("color differs at float %d (pixel %d,%d): %v, reference %v",
			i, i/4%got.W, i/4/got.W, got.Color[i], want.Color[i])
	}
	if i := sameBits(got.Depth, want.Depth); i >= 0 {
		t.Errorf("depth differs at pixel %d,%d", i%got.W, i/got.W)
	}
	if r.SampleCount != wantSamples {
		t.Errorf("SampleCount %d, reference %d", r.SampleCount, wantSamples)
	}
	if r.FetchCount < mustFetch || r.FetchCount > mayFetch {
		t.Errorf("FetchCount %d, but the reference has %d to %d samples in occupied bricks",
			r.FetchCount, mustFetch, mayFetch)
	}
	return got
}

// marchTF is translucent enough that rays cross the whole grid and
// opaque enough that some terminate early.
func marchTF(t testing.TB) *hybrid.LinkedTF {
	t.Helper()
	vol, err := hybrid.StepRamp(0.05, 0.2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := hybrid.NewLinkedTF(vol, hybrid.HeatMap(), 0.15, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return tf
}

type gridCase struct {
	name string
	grid *hybrid.Grid
}

// matrixGrids builds the grids of the differential test. The bounds
// are not a cube, so the three axes have different voxel and brick
// sizes. The small grids have 3 or 4 bricks on an axis and hardly an
// empty one next to an occupied one; the two 32^3 grids have 8, a body
// in the middle and empty bricks all around it, so a ray walked through
// any brick but its own shows.
func matrixGrids(t *testing.T) []gridCase {
	t.Helper()
	bounds := vec.Box(vec.New(-1, -0.8, -1.2), vec.New(1, 0.8, 1.2))
	mk := func(nx, ny, nz int, fill func(g *hybrid.Grid, rng *rand.Rand)) *hybrid.Grid {
		g, err := hybrid.NewGrid(nx, ny, nz, bounds)
		if err != nil {
			t.Fatal(err)
		}
		if fill != nil {
			fill(g, rand.New(rand.NewSource(int64(nx*ny*nz))))
		}
		return g
	}
	blob := func(g *hybrid.Grid, rng *rand.Rand) {
		for z := 0; z < g.Nz; z++ {
			for y := 0; y < g.Ny; y++ {
				for x := 0; x < g.Nx; x++ {
					fx := (float64(x)+0.5)/float64(g.Nx) - 0.45
					fy := (float64(y)+0.5)/float64(g.Ny) - 0.55
					fz := (float64(z)+0.5)/float64(g.Nz) - 0.5
					if r2 := fx*fx + fy*fy + fz*fz; r2 < 0.05 {
						setVoxel(g, x, y, z, float32(1-r2/0.05))
					}
				}
			}
		}
	}
	return []gridCase{
		{"zero", mk(12, 12, 12, nil)},
		{"dense", mk(12, 12, 12, func(g *hybrid.Grid, rng *rand.Rand) {
			for i := range g.Data {
				g.Data[i] = 0.02 + 0.3*rng.Float32()
			}
		})},
		{"cornerBrick", mk(12, 12, 12, func(g *hybrid.Grid, _ *rand.Rand) { setVoxel(g, 11, 0, 11, 0.8) })},
		{"edgeBrick", mk(12, 12, 12, func(g *hybrid.Grid, _ *rand.Rand) { setVoxel(g, 5, 1, 10, 0.8) })},
		{"halo", mk(16, 16, 16, func(g *hybrid.Grid, rng *rand.Rand) {
			blob(g, rng)
			for i := 0; i < 40; i++ {
				g.Data[rng.Intn(len(g.Data))] = 0.3 * rng.Float32()
			}
		})},
		{"negativeNaN", mk(12, 12, 12, func(g *hybrid.Grid, rng *rand.Rand) {
			blob(g, rng)
			setVoxel(g, 1, 2, 1, -0.5)
			setVoxel(g, 2, 2, 1, 0.9) // next to the negative voxel: lerps of either sign
			setVoxel(g, 9, 9, 2, float32(math.NaN()))
			setVoxel(g, 6, 5, 6, float32(math.NaN())) // inside the blob
			setVoxel(g, 0, 11, 11, -1)
		})},
		{"5x9x17", mk(5, 9, 17, blob)},
		{"centred32", mk(32, 32, 32, blob)},
		{"centreVoxel32", mk(32, 32, 32, func(g *hybrid.Grid, _ *rand.Rand) { setVoxel(g, 16, 16, 16, 0.8) })},
		{"1x1x1", mk(1, 1, 1, func(g *hybrid.Grid, _ *rand.Rand) { setVoxel(g, 0, 0, 0, 0.7) })},
	}
}

type camCase struct {
	name string
	cam  render.Camera
}

func matrixCams(t *testing.T, w, h int) []camCase {
	t.Helper()
	mk := func(eye, target vec.V3, near float64) render.Camera {
		cam, err := render.NewCamera(eye, target, vec.New(0, 1, 0), math.Pi/3, float64(w)/float64(h), near, 100)
		if err != nil {
			t.Fatal(err)
		}
		return cam
	}
	cams := []camCase{
		{"outside", mk(vec.New(2.6, 1.9, 3.1), vec.New(0, 0, 0), 0.1)},
		{"inside", mk(vec.New(0.1, -0.05, 0.2), vec.New(1, 0.3, -0.4), 0.05)},
		// The near plane lies inside the volume: rays start mid-brick.
		{"nearClipped", mk(vec.New(0.3, 0.2, 2.6), vec.New(0, 0, 0), 1.9)},
		// Looking down -z with odd image sizes: the centre column has
		// dir.X == 0, the centre row dir.Y == 0, the centre pixel both.
		{"axisAligned", mk(vec.New(0, 0, 4), vec.New(0, 0, 0), 0.1)},
	}
	_, dir := pixelRay(cams[3].cam, w/2, h/2, w, h)
	if dir.X != 0 || dir.Y != 0 {
		t.Fatalf("axis-aligned camera's centre ray is %v, want exactly -z", dir)
	}
	return cams
}

// TestBrickMaskMatchesDefinition compares the one-pass mask with the
// definition applied brick by brick.
func TestBrickMaskMatchesDefinition(t *testing.T) {
	grids := append(matrixGrids(t), gridCase{"ball64", solidGrid(t, 64)})
	for _, gc := range grids {
		got, want := newBrickMask(gc.grid), bricksOf(gc.grid)
		if [3]int{got.nx, got.ny, got.nz} != want.n {
			t.Fatalf("%s: %dx%dx%d bricks, want %v", gc.name, got.nx, got.ny, got.nz, want.n)
		}
		for i := range want.occupied {
			if got.occupied[i] != want.occupied[i] {
				t.Errorf("%s: brick %d occupied = %v, by definition %v", gc.name, i, got.occupied[i], want.occupied[i])
				break
			}
		}
	}
}

// TestRayCastMatchesReference is the exactness claim of the brick mask:
// over grids, views and settings chosen to reach every branch of the
// brick walk, Render writes the reference march's bits, counts its
// samples and fetches those of them that lie in occupied bricks.
func TestRayCastMatchesReference(t *testing.T) {
	const w, h = 23, 17 // odd, so the centre ray of axisAligned is exact
	tf := marchTF(t)
	cams := matrixCams(t, w, h)
	splats := []vec.V3{vec.New(0.2, 0.1, 0.3), vec.New(-0.5, 0.4, -0.6), vec.New(0, 0, 1.1), vec.New(0.6, -0.3, -1.3)}
	for _, gc := range matrixGrids(t) {
		for _, cc := range cams {
			for _, withSplats := range []bool{false, true} {
				base, err := render.NewFramebuffer(w, h)
				if err != nil {
					t.Fatal(err)
				}
				if withSplats {
					rast := render.NewRasterizer(base, cc.cam)
					rast.Mode = render.BlendOpaque
					for _, p := range splats {
						rast.DrawPoint(p, 2.5, hybrid.RGBA{R: 1, G: 0.5, A: 1})
					}
				}
				for _, stepScale := range []float64{0.25, 0.37, 0.5, 1} {
					for _, jitter := range []bool{false, true} {
						for _, workers := range []int{1, 2, 7} {
							name := fmt.Sprintf("%s/%s/splats=%v/step=%v/jitter=%v/workers=%d",
								gc.name, cc.name, withSplats, stepScale, jitter, workers)
							r, err := New(gc.grid, tf)
							if err != nil {
								t.Fatal(err)
							}
							r.StepScale, r.Jitter, r.Workers = stepScale, jitter, workers
							before := t.Failed()
							checkAgainstReference(t, r, base, cc.cam)
							if !before && t.Failed() {
								t.Fatalf("first mismatch: %s", name)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzRayCastMatchesReference draws the grid, its bounds, the camera
// and the settings from a seed.
func FuzzRayCastMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed)
	}
	tf := marchTF(f)
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		lo := vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		ext := vec.New(0.2+2*rng.Float64(), 0.2+2*rng.Float64(), 0.2+2*rng.Float64())
		g, err := hybrid.NewGrid(1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(20), vec.Box(lo, lo.Add(ext)))
		if err != nil {
			t.Fatal(err)
		}
		// A few filled boxes in an otherwise empty grid, so that both
		// empty and occupied bricks are met at any fill.
		for k := rng.Intn(4); k > 0; k-- {
			x0, y0, z0 := rng.Intn(g.Nx), rng.Intn(g.Ny), rng.Intn(g.Nz)
			x1, y1, z1 := x0+rng.Intn(g.Nx-x0), y0+rng.Intn(g.Ny-y0), z0+rng.Intn(g.Nz-z0)
			for z := z0; z <= z1; z++ {
				for y := y0; y <= y1; y++ {
					for x := x0; x <= x1; x++ {
						setVoxel(g, x, y, z, rng.Float32()-0.1)
					}
				}
			}
		}
		center := g.Bounds.Center()
		eye := center.Add(vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Scale(ext.Len() * rng.Float64() * 1.5))
		target := center.Add(vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Scale(0.3))
		w, h := 9+rng.Intn(12), 9+rng.Intn(12)
		if rng.Intn(4) == 0 {
			// Look along the grid's x or z axis into an odd-sized image:
			// the centre row and column have a direction component
			// exactly 0.
			axis := 2 * rng.Intn(2)
			eye = target
			if d := ext.Len() * (rng.Float64()*3 - 1.5); axis == 0 {
				eye.X += d
			} else {
				eye.Z += d
			}
			w, h = w|1, h|1
		}
		cam, err := render.NewCamera(eye, target, vec.New(0, 1, 0), math.Pi/3, float64(w)/float64(h), 0.01+0.5*rng.Float64(), 50)
		if err != nil {
			t.Skip(err)
		}
		base, err := render.NewFramebuffer(w, h)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			rast := render.NewRasterizer(base, cam)
			rast.Mode = render.BlendOpaque
			rast.DrawPoint(center, 3, hybrid.RGBA{B: 1, A: 1})
		}
		r, err := New(g, tf)
		if err != nil {
			t.Fatal(err)
		}
		r.StepScale = 0.2 + rng.Float64()
		r.Jitter = rng.Intn(2) == 0
		r.Workers = 1 + rng.Intn(4)
		checkAgainstReference(t, r, base, cam)
	})
}

// TestAxisAlignedRaysFindTheirBrick casts down -z at a ball in the
// middle of a 64^3 grid into an odd-sized image: the centre row's rays
// have dir.Y == 0, the centre column's dir.X == 0, and both pass
// through the ball, 8 bricks from the empty bricks at the grid's faces.
// A walk that does not place such a ray on the axis it never moves
// along leaves a transparent cross in the picture.
func TestAxisAlignedRaysFindTheirBrick(t *testing.T) {
	cam := testCam(t)
	const size = 63
	_, dir := pixelRay(cam, size/2, size/2, size, size)
	if dir.X != 0 || dir.Y != 0 {
		t.Fatalf("centre ray is %v, want exactly -z", dir)
	}
	r, err := New(solidGrid(t, 64), marchTF(t))
	if err != nil {
		t.Fatal(err)
	}
	base, _ := render.NewFramebuffer(size, size)
	fb := checkAgainstReference(t, r, base, cam)
	for _, px := range [][2]int{{size / 2, size / 2}, {size/2 + 9, size / 2}, {size / 2, size/2 - 9}} {
		if fb.At(px[0], px[1]).A <= 0 {
			t.Errorf("pixel %v, where a ray along a grid axis meets the ball, is transparent", px)
		}
	}
}

// TestFetchCountShowsSkipping pins what the mask is for: around a
// compact body most samples read no voxel, and in an empty grid none
// does and no pixel is written.
func TestFetchCountShowsSkipping(t *testing.T) {
	cam := testCam(t)
	r, err := New(solidGrid(t, 64), testTF(t))
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := render.NewFramebuffer(64, 64)
	r.Render(fb, cam)
	if r.FetchCount == 0 || r.FetchCount > r.SampleCount/2 {
		t.Errorf("ball in a 64^3 grid: %d of %d samples fetched, want at most half", r.FetchCount, r.SampleCount)
	}

	empty, err := hybrid.NewGrid(64, 64, 64, vec.Box(vec.New(-1, -1, -1), vec.New(1, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	r, err = New(empty, testTF(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range fb.Color {
		fb.Color[i] = float32(i%7) / 8
	}
	before := cloneFB(fb)
	r.Render(fb, cam)
	if r.SampleCount == 0 || r.FetchCount != 0 {
		t.Errorf("empty grid: %d of %d samples fetched, want 0 of many", r.FetchCount, r.SampleCount)
	}
	if i := sameBits(fb.Color, before.Color); i >= 0 {
		t.Errorf("empty grid: color %d written", i)
	}
}

// TestRayLimitMatchesReference holds the depth limit Render runs — the
// view matrix's z and w rows and NDCDepth's coefficients read once per
// Render — to the reference's bisection through the Camera methods,
// bit for bit. Most depths come from float32 buffers as Render's do:
// splats drawn into a depth buffer, and the stored depths of points in
// front of, inside and behind each ray's span through the bounds.
func TestRayLimitMatchesReference(t *testing.T) {
	var behind, inFront, bisected int
	check := func(name string, cam render.Camera, b vec.AABB, w, h int) {
		t.Helper()
		fb, err := render.NewFramebuffer(w, h)
		if err != nil {
			t.Fatal(err)
		}
		rast := render.NewRasterizer(fb, cam)
		rast.Mode = render.BlendOpaque
		rng := rand.New(rand.NewSource(int64(w*h) + 7))
		size := b.Size()
		for i := 0; i < 40; i++ {
			p := b.Min.Add(vec.New(rng.Float64()*size.X, rng.Float64()*size.Y, rng.Float64()*size.Z))
			rast.DrawPoint(p, 2, hybrid.RGBA{R: 1, A: 1})
		}
		rows := newDepthRows(&cam)
		rays := cam.Rays(w, h)
		depths := make([]float64, 0, 11)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				origin, dir := rays.Ray(x, y)
				tEnter, tExit, hit := b.IntersectRay(origin, dir)
				if !hit || tExit <= 0 {
					continue
				}
				tEnter = max(tEnter, cam.Near)
				depthAt := func(t float64) float64 { return cam.NDCDepth(cam.ViewZ(origin.Add(dir.Scale(t)))) }
				depths = depths[:0]
				if z := fb.DepthAt(x, y); !math.IsInf(float64(z), 1) {
					depths = append(depths, float64(z))
				}
				for _, frac := range []float64{-0.5, 0, 0.3, 0.5, 0.9, 1, 1.5} {
					depths = append(depths, float64(float32(depthAt(tEnter+frac*(tExit-tEnter)))))
				}
				// Stricter than any buffer: the exact depths of the span's
				// ends and of the first midpoint, where each comparison is
				// an equality that one ulp of the limit's arithmetic flips.
				depths = append(depths, depthAt(tEnter), depthAt(tExit), depthAt((tEnter+tExit)/2))
				for _, zNDC := range depths {
					want := refRayLimitForDepth(cam, origin, dir, zNDC, tEnter, tExit)
					got := rayLimitForDepth(&rows, origin, dir, zNDC, tEnter, tExit)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: pixel %d,%d depth %v: limit %v, reference %v", name, x, y, zNDC, got, want)
					}
					switch {
					case want == tExit:
						behind++
					case want == tEnter:
						inFront++
					default:
						bisected++
					}
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(11))
	var last render.Camera
	var lastBounds vec.AABB
	for i := 0; i < 12; i++ {
		lo := vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		b := vec.Box(lo, lo.Add(vec.New(0.2+2*rng.Float64(), 0.2+2*rng.Float64(), 0.2+2*rng.Float64())))
		w, h := 2*(4+rng.Intn(10))+i%2, 2*(4+rng.Intn(10))+i/2%2 // odd and even
		view := vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		cam, err := render.LookAtBounds(b, view, math.Pi/3, float64(w)/float64(h))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("camera %d (%dx%d)", i, w, h), cam, b, w, h)
		last, lastBounds = cam, b
	}
	// A view matrix whose bottom row is not (0, 0, 0, 1): every depth
	// goes through M4.Apply's division by w.
	copy(last.View[12:], []float64{0.01, -0.02, 0.015, 1.25})
	check("w-division", last, lastBounds, 21, 16)
	if behind == 0 || inFront == 0 || bisected == 0 {
		t.Errorf("limits behind the exit %d, in front of the entry %d, bisected %d: want some of each",
			behind, inFront, bisected)
	}
}

// TestFlatBoundsRender is the regression test for grids whose bounds
// are flat along an axis. The voxel size used to be the minimum over
// all three axes, so such a grid had step 0: with empty data the rays
// in the plane never left the march, and with data 0/0 went through
// math.Pow into Color.
func TestFlatBoundsRender(t *testing.T) {
	flat := vec.Box(vec.New(-1, -1, 0), vec.New(1, 1, 0))
	// The camera sits in the plane, z up: the centre row's rays have
	// dir.Z == 0 and run through the grid edge-on.
	cam, err := render.NewCamera(vec.New(3, 0, 0), vec.New(0, 0, 0), vec.New(0, 0, 1), math.Pi/3, 1, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, fill := range []float32{0, 0.6} {
		g, err := hybrid.NewGrid(8, 8, 8, flat)
		if err != nil {
			t.Fatal(err)
		}
		for i := range g.Data {
			g.Data[i] = fill
		}
		r, err := New(g, marchTF(t))
		if err != nil {
			t.Fatal(err)
		}
		base, _ := render.NewFramebuffer(15, 15)
		var fb *render.Framebuffer
		done := make(chan struct{})
		go func() {
			defer close(done)
			fb = checkAgainstReference(t, r, base, cam)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("fill %v: Render does not return", fill)
		}
		if r.SampleCount == 0 || r.FetchCount != r.SampleCount {
			t.Errorf("fill %v: %d samples, %d fetched; flat bounds have no mask, so want all of some", fill, r.SampleCount, r.FetchCount)
		}
		for i, c := range fb.Color {
			if c != c {
				t.Fatalf("fill %v: NaN in color %d", fill, i)
			}
		}
		if lit := fb.At(7, 7).A > 0; lit != (fill > 0) {
			t.Errorf("fill %v: centre pixel lit = %v", fill, lit)
		}
	}

	// Flat along every axis: nothing to march.
	g, err := hybrid.NewGrid(2, 2, 2, vec.Box(vec.New(1, 1, 1), vec.New(1, 1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	g.Data[0] = 1
	r, err := New(g, marchTF(t))
	if err != nil {
		t.Fatal(err)
	}
	r.SampleCount = 5
	fb, _ := render.NewFramebuffer(9, 9)
	r.Render(fb, testCam(t))
	if r.SampleCount != 0 || fb.CoveredPixels(0) != 0 {
		t.Errorf("point bounds: %d samples, %d pixels covered, want none", r.SampleCount, fb.CoveredPixels(0))
	}
}

// BenchmarkRayCast times Renderer.Render alone at the benchmark's
// thin-client size. beam is the hybrid pipeline's grid (a compact core
// in a mostly empty box) over an empty depth buffer; hybrid is the same
// grid behind splats already in the depth buffer, which is what a
// hybrid render casts and the only case that runs the depth limit;
// dense has no empty brick, so it bounds what the mask and the brick
// walk cost where they cannot help; empty is the skip loop alone.
func BenchmarkRayCast(b *testing.B) {
	const res, size = 64, 192
	bounds := vec.Box(vec.New(-1, -1, -1), vec.New(1, 1, 1))
	rng := rand.New(rand.NewSource(3))
	pts := make([]vec.V3, 100000)
	for i := range pts {
		if i%200 != 0 {
			pts[i] = vec.New(rng.NormFloat64()*0.08, rng.NormFloat64()*0.12, rng.NormFloat64()*0.1)
		} else {
			pts[i] = vec.New(rng.NormFloat64()*0.3, rng.NormFloat64()*0.3, rng.NormFloat64()*0.3)
		}
	}
	beam, err := hybrid.Splat(pts, bounds, res, res, res, 0)
	if err != nil {
		b.Fatal(err)
	}
	beam.Normalize()
	dense, _ := hybrid.NewGrid(res, res, res, bounds)
	for i := range dense.Data {
		dense.Data[i] = 0.01 + 0.2*rng.Float32()
	}
	empty, _ := hybrid.NewGrid(res, res, res, bounds)

	// Low opacity over a log domain, as DefaultTF: rays run deep.
	vol, err := hybrid.StepRamp(0.2, 0.6, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	tf, err := hybrid.NewLinkedTF(vol, hybrid.HeatMap(), 0.12, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	tf.Domain = hybrid.LogDomain(1e4)
	cam, err := render.LookAtBounds(bounds, vec.New(0.3, 0.2, 1), math.Pi/3, 1)
	if err != nil {
		b.Fatal(err)
	}
	// The splats: every 40th point, opaque, as RenderPointPass draws them.
	splatted, err := render.NewFramebuffer(size, size)
	if err != nil {
		b.Fatal(err)
	}
	rast := render.NewRasterizer(splatted, cam)
	rast.Mode = render.BlendOpaque
	for i := 0; i < len(pts); i += 40 {
		rast.DrawPoint(pts[i], 1.5, hybrid.RGBA{R: 1, G: 0.6, A: 1})
	}

	for _, c := range []struct {
		name string
		grid *hybrid.Grid
		base *render.Framebuffer // nil: a cleared frame
	}{{"beam", beam, nil}, {"hybrid", beam, splatted}, {"dense", dense, nil}, {"empty", empty, nil}} {
		b.Run(c.name, func(b *testing.B) {
			r, err := New(c.grid, tf)
			if err != nil {
				b.Fatal(err)
			}
			fb, err := render.NewFramebuffer(size, size)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.base != nil {
					copy(fb.Color, c.base.Color)
					copy(fb.Depth, c.base.Depth)
				} else {
					fb.Clear(hybrid.RGBA{})
				}
				r.Render(fb, cam)
			}
			b.ReportMetric(float64(r.SampleCount)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
			b.ReportMetric(float64(r.FetchCount)/float64(r.SampleCount), "fetch_share")
		})
	}
}
