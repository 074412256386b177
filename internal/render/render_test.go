package render

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hybrid"
	"repro/internal/vec"
)

func testCam(t *testing.T) Camera {
	t.Helper()
	cam, err := NewCamera(vec.New(0, 0, 5), vec.New(0, 0, 0), vec.New(0, 1, 0),
		math.Pi/3, 1, 0.1, 100)
	if err != nil {
		t.Fatalf("NewCamera: %v", err)
	}
	return cam
}

func white() hybrid.RGBA { return hybrid.RGBA{R: 1, G: 1, B: 1, A: 1} }

func TestFramebufferValidation(t *testing.T) {
	if _, err := NewFramebuffer(0, 10); err == nil {
		t.Error("accepted zero width")
	}
}

func TestClearAndAt(t *testing.T) {
	fb, err := NewFramebuffer(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	fb.Clear(hybrid.RGBA{R: 0.5, G: 0.25, B: 0.125, A: 1})
	c := fb.At(2, 3)
	if c.R != 0.5 || c.G != 0.25 || c.B != 0.125 {
		t.Errorf("At = %+v", c)
	}
	if !math.IsInf(float64(fb.DepthAt(0, 0)), 1) {
		t.Errorf("depth not cleared to +Inf")
	}
}

func TestCameraValidation(t *testing.T) {
	if _, err := NewCamera(vec.New(0, 0, 0), vec.New(0, 0, 0), vec.New(0, 1, 0), 1, 1, 0.1, 10); err == nil {
		t.Error("accepted coincident eye/target")
	}
	if _, err := NewCamera(vec.New(0, 0, 5), vec.New(0, 0, 0), vec.New(0, 1, 0), 0, 1, 0.1, 10); err == nil {
		t.Error("accepted zero fovy")
	}
	if _, err := NewCamera(vec.New(0, 0, 5), vec.New(0, 0, 0), vec.New(0, 1, 0), 1, 1, 5, 1); err == nil {
		t.Error("accepted far < near")
	}

	// Non-finite inputs: such a camera's rays never leave a ray cast.
	nan, inf := math.NaN(), math.Inf(1)
	eye, target, up := vec.New(0, 0, 5), vec.New(0, 0, 0), vec.New(0, 1, 0)
	for _, c := range []struct {
		name            string
		eye, target, up vec.V3
		fovy, near, far float64
	}{
		{"NaN eye", vec.New(nan, 0, 5), target, up, 1, 0.1, 10},
		{"infinite eye", vec.New(0, -inf, 5), target, up, 1, 0.1, 10},
		{"NaN target", eye, vec.New(0, 0, nan), up, 1, 0.1, 10},
		{"infinite target", eye, vec.New(inf, 0, 0), up, 1, 0.1, 10},
		{"NaN up", eye, target, vec.New(0, nan, 0), 1, 0.1, 10},
		{"NaN fovy", eye, target, up, nan, 0.1, 10},
		{"NaN near", eye, target, up, 1, nan, 10},
		{"NaN far", eye, target, up, 1, 0.1, nan},
		{"infinite far", eye, target, up, 1, 0.1, inf},
	} {
		_, err := NewCamera(c.eye, c.target, c.up, c.fovy, 1, c.near, c.far)
		if err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("%s: err = %v, want a non-finite camera refused", c.name, err)
		}
	}
	box := vec.Box(vec.New(-1, -1, -1), vec.New(1, 1, 1))
	for _, c := range []struct {
		name string
		b    vec.AABB
		dir  vec.V3
	}{
		{"NaN view direction", box, vec.New(nan, 0, 1)},
		{"infinite view direction", box, vec.New(0, inf, 1)},
		{"NaN bounds", vec.Box(vec.New(nan, -1, -1), vec.New(1, 1, 1)), vec.New(0, 0, 1)},
		{"infinite bounds", vec.Box(vec.New(-1, -1, -1), vec.New(1, inf, 1)), vec.New(0, 0, 1)},
	} {
		_, err := LookAtBounds(c.b, c.dir, math.Pi/3, 1)
		if err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("LookAtBounds, %s: err = %v, want a non-finite camera refused", c.name, err)
		}
	}
}

func TestWorldToScreenCenter(t *testing.T) {
	cam := testCam(t)
	// The look-at target must project to the screen center.
	sx, sy, _, ok := cam.WorldToScreen(vec.New(0, 0, 0), 100, 100)
	if !ok {
		t.Fatal("target not visible")
	}
	if math.Abs(sx-50) > 1e-9 || math.Abs(sy-50) > 1e-9 {
		t.Errorf("target at (%v, %v), want (50, 50)", sx, sy)
	}
	// A point behind the camera is rejected.
	if _, _, _, ok := cam.WorldToScreen(vec.New(0, 0, 10), 100, 100); ok {
		t.Error("point behind camera reported visible")
	}
}

func TestDepthOrdering(t *testing.T) {
	cam := testCam(t)
	_, _, dNear, _ := cam.WorldToScreen(vec.New(0, 0, 2), 100, 100)
	_, _, dFar, _ := cam.WorldToScreen(vec.New(0, 0, -3), 100, 100)
	if dNear >= dFar {
		t.Errorf("depth not monotonic: near %v, far %v", dNear, dFar)
	}
}

func TestLookAtBoundsFramesBox(t *testing.T) {
	b := vec.Box(vec.New(-1, -2, -3), vec.New(4, 5, 6))
	cam, err := LookAtBounds(b, vec.New(0, 0, 1), math.Pi/3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// All corners must be visible.
	for i := 0; i < 8; i++ {
		p := vec.New(b.Min.X, b.Min.Y, b.Min.Z)
		if i&1 != 0 {
			p.X = b.Max.X
		}
		if i&2 != 0 {
			p.Y = b.Max.Y
		}
		if i&4 != 0 {
			p.Z = b.Max.Z
		}
		sx, sy, _, ok := cam.WorldToScreen(p, 200, 200)
		if !ok || sx < 0 || sx > 200 || sy < 0 || sy > 200 {
			t.Errorf("corner %v projects to (%v,%v) ok=%v", p, sx, sy, ok)
		}
	}
}

func TestDrawPointWritesPixels(t *testing.T) {
	fb, _ := NewFramebuffer(64, 64)
	r := NewRasterizer(fb, testCam(t))
	r.DrawPoint(vec.New(0, 0, 0), 3, white())
	if fb.At(32, 32).R == 0 {
		t.Error("center pixel not written")
	}
	if r.PointCount != 1 || r.FragmentCount == 0 {
		t.Errorf("stats: points %d fragments %d", r.PointCount, r.FragmentCount)
	}
}

func TestDrawPointBehindCameraIgnored(t *testing.T) {
	fb, _ := NewFramebuffer(64, 64)
	r := NewRasterizer(fb, testCam(t))
	r.DrawPoint(vec.New(0, 0, 100), 3, white())
	if r.PointCount != 0 {
		t.Error("point behind camera counted")
	}
}

func TestDrawLineConnectsEndpoints(t *testing.T) {
	fb, _ := NewFramebuffer(64, 64)
	r := NewRasterizer(fb, testCam(t))
	r.DrawLine(vec.New(-1, 0, 0), vec.New(1, 0, 0), 1, white(), white())
	// The line must pass through the horizontal midline.
	found := 0
	for x := 0; x < 64; x++ {
		if fb.At(x, 32).R > 0 {
			found++
		}
	}
	if found < 10 {
		t.Errorf("only %d midline pixels written", found)
	}
}

func TestDrawLineClippedWhenBehind(t *testing.T) {
	fb, _ := NewFramebuffer(64, 64)
	r := NewRasterizer(fb, testCam(t))
	// Entirely behind the camera: nothing drawn.
	r.DrawLine(vec.New(-1, 0, 20), vec.New(1, 0, 20), 1, white(), white())
	if r.LineCount != 0 {
		t.Error("fully-behind line drawn")
	}
	// Straddling: should draw the visible part without panicking.
	r.DrawLine(vec.New(0, 0, -2), vec.New(0, 0, 20), 1, white(), white())
	if r.LineCount != 1 {
		t.Error("straddling line not drawn")
	}
}

func TestDrawTriangleFillsInterior(t *testing.T) {
	fb, _ := NewFramebuffer(64, 64)
	r := NewRasterizer(fb, testCam(t))
	v := func(x, y float64) Vertex {
		return Vertex{Pos: vec.New(x, y, 0), Color: white()}
	}
	r.DrawTriangle(v(-2, -2), v(2, -2), v(0, 2))
	if fb.At(32, 32).R == 0 {
		t.Error("triangle interior not filled")
	}
	// A corner of the screen should stay empty.
	if fb.At(1, 1).R != 0 {
		t.Error("triangle overflowed to screen corner")
	}
}

func TestDepthTestOccludes(t *testing.T) {
	fb, _ := NewFramebuffer(64, 64)
	r := NewRasterizer(fb, testCam(t))
	v := func(x, y, z float64, c hybrid.RGBA) Vertex {
		return Vertex{Pos: vec.New(x, y, z), Color: c}
	}
	red := hybrid.RGBA{R: 1, A: 1}
	blue := hybrid.RGBA{B: 1, A: 1}
	// Near red triangle first, far blue triangle second.
	r.DrawTriangle(v(-2, -2, 1, red), v(2, -2, 1, red), v(0, 2, 1, red))
	r.DrawTriangle(v(-2, -2, -1, blue), v(2, -2, -1, blue), v(0, 2, -1, blue))
	c := fb.At(32, 32)
	if c.R != 1 || c.B != 0 {
		t.Errorf("depth test failed: center = %+v", c)
	}
}

func TestAlphaBlendOver(t *testing.T) {
	fb, _ := NewFramebuffer(4, 4)
	fb.writeFragment(1, 1, 0.5, hybrid.RGBA{R: 1, A: 1}, BlendOpaque, false, false)
	fb.writeFragment(1, 1, 0.5, hybrid.RGBA{B: 1, A: 0.5}, BlendAlpha, false, false)
	c := fb.At(1, 1)
	if math.Abs(c.R-0.5) > 1e-6 || math.Abs(c.B-0.5) > 1e-6 {
		t.Errorf("alpha blend = %+v, want R=B=0.5", c)
	}
}

func TestAdditiveBlendAccumulates(t *testing.T) {
	fb, _ := NewFramebuffer(4, 4)
	for i := 0; i < 4; i++ {
		fb.writeFragment(1, 1, 0.5, hybrid.RGBA{R: 0.25, A: 0.5}, BlendAdditive, false, false)
	}
	c := fb.At(1, 1)
	if math.Abs(c.R-0.5) > 1e-6 {
		t.Errorf("additive R = %v, want 0.5 (4 x 0.25 x 0.5)", c.R)
	}
}

func TestTriangleStripCount(t *testing.T) {
	fb, _ := NewFramebuffer(32, 32)
	r := NewRasterizer(fb, testCam(t))
	verts := make([]Vertex, 10)
	for i := range verts {
		x := float64(i/2)*0.4 - 1
		y := float64(i%2)*0.4 - 0.2
		verts[i] = Vertex{Pos: vec.New(x, y, 0), Color: white()}
	}
	r.DrawTriangleStrip(verts)
	if r.TriangleCount != 8 {
		t.Errorf("strip of 10 verts drew %d triangles, want 8", r.TriangleCount)
	}
}

func TestPhongShaderLightsFacingSurface(t *testing.T) {
	lights := []Light{{Dir: vec.New(0, 0, 1), Color: white(), Intensity: 1}}
	shader := PhongShader(lights, DefaultPhong())
	lit := shader(Fragment{
		N:       vec.New(0, 0, 1),
		Color:   hybrid.RGBA{R: 0.5, G: 0.5, B: 0.5, A: 1},
		ViewDir: vec.New(0, 0, 1),
	})
	grazing := shader(Fragment{
		N:       vec.New(1, 0, 0.01).Norm(),
		Color:   hybrid.RGBA{R: 0.5, G: 0.5, B: 0.5, A: 1},
		ViewDir: vec.New(0, 0, 1),
	})
	if lit.R <= grazing.R {
		t.Errorf("facing surface (%v) not brighter than grazing (%v)", lit.R, grazing.R)
	}
}

func TestTubeShaderProfile(t *testing.T) {
	lights := []Light{{Dir: vec.New(0, 0, 1), Color: white(), Intensity: 1}}
	shader := TubeShader(lights, DefaultPhong(), 0.8)
	frag := func(u float64) Fragment {
		return Fragment{
			N:       vec.New(1, 0, 0), // side vector
			UV:      [2]float64{u, 0},
			Color:   white(),
			ViewDir: vec.New(0, 0, 1),
		}
	}
	center := shader(frag(0))
	edge := shader(frag(0.9)) // inside halo band
	out := shader(frag(1.5))  // outside profile
	if center.R <= edge.R {
		t.Errorf("tube center (%v) not brighter than halo rim (%v)", center.R, edge.R)
	}
	if edge.R != 0 || edge.A == 0 {
		t.Errorf("halo rim should be opaque black, got %+v", edge)
	}
	if out.A != 0 {
		t.Errorf("outside-profile fragment not discarded: %+v", out)
	}
}

func TestIlluminatedLineMaxWhenPerpendicular(t *testing.T) {
	mat := DefaultPhong()
	c := white()
	perp := IlluminatedLineColor(c, vec.New(1, 0, 0), vec.New(0, 0, 1), vec.New(0, 0, 1), mat)
	along := IlluminatedLineColor(c, vec.New(0, 0, 1), vec.New(0, 0, 1), vec.New(0, 0, 1), mat)
	if perp.R <= along.R {
		t.Errorf("perpendicular line (%v) not brighter than parallel (%v)", perp.R, along.R)
	}
}

func TestWritePNG(t *testing.T) {
	fb, _ := NewFramebuffer(16, 16)
	fb.Clear(hybrid.RGBA{R: 1, A: 1})
	path := filepath.Join(t.TempDir(), "out.png")
	if err := fb.WritePNG(path); err != nil {
		t.Fatalf("WritePNG: %v", err)
	}
}

func TestCoveredPixels(t *testing.T) {
	fb, _ := NewFramebuffer(8, 8)
	fb.writeFragment(0, 0, 0, white(), BlendOpaque, false, false)
	fb.writeFragment(3, 3, 0, white(), BlendOpaque, false, false)
	if got := fb.CoveredPixels(0.5); got != 2 {
		t.Errorf("CoveredPixels = %d, want 2", got)
	}
}

// TestRaysMatchPerPixelFormula holds the hoisted ray generator to the
// per-pixel formula, bit for bit.
func TestRaysMatchPerPixelFormula(t *testing.T) {
	cam, err := NewCamera(vec.New(2.6, -1.9, 3.1), vec.New(0.2, 0.1, -0.3), vec.New(0, 1, 0),
		math.Pi/3.7, 1.6, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	const w, h = 37, 23
	rays := cam.Rays(w, h)
	for py := 0; py < h; py++ {
		for px := 0; px < w; px++ {
			ndcX := 2*(float64(px)+0.5)/float64(w) - 1
			ndcY := 1 - 2*(float64(py)+0.5)/float64(h)
			tan := math.Tan(cam.Fovy / 2)
			vd := vec.New(ndcX*tan*cam.Aspect, ndcY*tan, -1)
			s := vec.New(cam.View[0], cam.View[1], cam.View[2])
			u := vec.New(cam.View[4], cam.View[5], cam.View[6])
			nf := vec.New(cam.View[8], cam.View[9], cam.View[10])
			want := s.Scale(vd.X).Add(u.Scale(vd.Y)).Add(nf.Scale(vd.Z)).Norm()

			origin, dir := rays.Ray(px, py)
			if origin != cam.Eye || dir != want {
				t.Fatalf("pixel %d,%d: Rays gives %v, formula %v", px, py, dir, want)
			}
		}
	}
}

// TestScreenRectIsConservative is ScreenRect's contract as a property.
// For random boxes seen from outside (the box on screen, partly on it
// or off it), from inside, and with the near plane cutting the box, at
// 1x1, odd and even sizes, every pixel outside the rectangle casts a
// ray that misses the box or leaves it at t <= 0, and a camera with a
// corner on or behind the near plane gets the whole frame.
func TestScreenRectIsConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	unit := func() vec.V3 {
		return vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Norm()
	}
	sizes := [][2]int{{1, 1}, {1, 7}, {23, 17}, {32, 24}, {48, 48}, {9, 40}, {64, 31}}
	left := 0 // pixels left out of a rectangle, over all cameras
	for i := 0; i < 420; i++ {
		lo := vec.New(rng.NormFloat64()*2, rng.NormFloat64()*2, rng.NormFloat64()*2)
		ext := vec.New(0.05+2*rng.Float64(), 0.05+2*rng.Float64(), 0.05+2*rng.Float64())
		b := vec.Box(lo, lo.Add(ext))
		center, diag := b.Center(), b.Diagonal()
		w, h := sizes[i%len(sizes)][0], sizes[i%len(sizes)][1]
		near := 0.01 + 0.2*rng.Float64()
		var eye, target vec.V3
		kind := []string{"outside", "inside", "near plane cuts"}[i%3]
		switch kind {
		case "outside":
			eye = center.Add(unit().Scale(diag * (0.8 + 3*rng.Float64())))
			target = center.Add(unit().Scale(diag * 1.5 * rng.Float64()))
		case "inside":
			eye = lo.Add(vec.New(rng.Float64()*ext.X, rng.Float64()*ext.Y, rng.Float64()*ext.Z))
			target = eye.Add(unit())
		default:
			// The near plane through the centre: corners lie on both sides.
			eye = center.Add(unit().Scale(diag * (0.6 + rng.Float64())))
			target = center
			near = eye.Dist(center)
		}
		up := vec.New(0, 1, 0)
		if math.Abs(target.Sub(eye).Norm().Dot(up)) > 0.95 {
			up = vec.New(1, 0, 0)
		}
		cam, err := NewCamera(eye, target, up, math.Pi/3*(0.5+rng.Float64()), float64(w)/float64(h), near, 1000)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("camera %d (%s, %dx%d)", i, kind, w, h)

		r := cam.ScreenRect(b, w, h)
		if r.X0 < 0 || r.X0 > r.X1 || r.X1 > w || r.Y0 < 0 || r.Y0 > r.Y1 || r.Y1 > h {
			t.Fatalf("%s: rectangle %+v is not inside the frame", name, r)
		}
		cornerBehind := false
		for c := 0; c < 8; c++ {
			p := vec.New([2]float64{b.Min.X, b.Max.X}[c&1], [2]float64{b.Min.Y, b.Max.Y}[c>>1&1], [2]float64{b.Min.Z, b.Max.Z}[c>>2])
			cornerBehind = cornerBehind || cam.ViewZ(p) >= -near
		}
		if kind != "outside" && !cornerBehind {
			t.Fatalf("%s: no corner on or behind the near plane", name)
		}
		if cornerBehind && r != (Rect{0, 0, w, h}) {
			t.Errorf("%s: a corner is on or behind the near plane, but the rectangle is %+v", name, r)
		}
		rays := cam.Rays(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1 {
					continue
				}
				left++
				origin, dir := rays.Ray(x, y)
				if tEnter, tExit, hit := b.IntersectRay(origin, dir); hit && tExit > 0 {
					t.Fatalf("%s: pixel %d,%d is outside %+v, but its ray meets the box on [%v, %v]",
						name, x, y, r, tEnter, tExit)
				}
			}
		}
	}
	if left < 10000 {
		t.Errorf("only %d pixels left out of a rectangle: the property is nearly vacuous", left)
	}
}
