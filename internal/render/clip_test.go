package render

import (
	"math"
	"testing"

	"repro/internal/hybrid"
	"repro/internal/vec"
)

// TestCameraDepthRangeConservative: every point inside a box projects
// (through the rasterizer's own float32 depth path) inside the box's
// DepthRange interval, for a spread of boxes and cameras.
func TestCameraDepthRangeConservative(t *testing.T) {
	state := uint64(42)
	rnd := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / (1 << 53)
	}
	for trial := 0; trial < 50; trial++ {
		min := vec.New(rnd()*4-2, rnd()*4-2, rnd()*4-2)
		box := vec.Box(min, min.Add(vec.New(0.01+rnd(), 0.01+rnd(), 0.01+rnd())))
		cam, err := LookAtBounds(box, vec.New(rnd()-0.5, rnd()-0.5, rnd()+0.2), math.Pi/3, 1)
		if err != nil {
			t.Fatal(err)
		}
		near, far, ok := cam.DepthRange(box)
		if !ok {
			t.Fatalf("trial %d: DepthRange not ok for a framed box", trial)
		}
		if near >= far {
			t.Fatalf("trial %d: degenerate interval [%g, %g]", trial, near, far)
		}
		for s := 0; s < 200; s++ {
			p := vec.New(
				box.Min.X+rnd()*(box.Max.X-box.Min.X),
				box.Min.Y+rnd()*(box.Max.Y-box.Min.Y),
				box.Min.Z+rnd()*(box.Max.Z-box.Min.Z))
			_, _, depth, vis := cam.WorldToScreen(p, 64, 64)
			if !vis {
				t.Fatalf("trial %d: interior point behind the near plane", trial)
			}
			if d := float32(depth); d < near || d > far {
				t.Fatalf("trial %d: depth %g escapes DepthRange [%g, %g]", trial, d, near, far)
			}
		}
	}
}

// TestCameraDepthRangeRejects: empty boxes and boxes reaching the near
// plane get no interval.
func TestCameraDepthRangeRejects(t *testing.T) {
	box := vec.Box(vec.New(0, 0, 0), vec.New(1, 1, 1))
	cam, err := LookAtBounds(box, vec.New(0, 0, 1), math.Pi/3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := cam.DepthRange(vec.Empty()); ok {
		t.Error("empty box produced a depth interval")
	}
	// A box surrounding the eye touches the near plane.
	huge := vec.Box(cam.Eye.Sub(vec.New(1, 1, 1)), cam.Eye.Add(vec.New(1, 1, 1)))
	if _, _, ok := cam.DepthRange(huge); ok {
		t.Error("box containing the eye produced a depth interval")
	}
}

func clipFixture(t *testing.T) (Camera, []splat) {
	t.Helper()
	box := vec.Box(vec.New(0, 0, 0), vec.New(1, 1, 1))
	cam, err := LookAtBounds(box, vec.New(0.3, 0.4, 1), math.Pi/3, 1)
	if err != nil {
		t.Fatal(err)
	}
	state := uint64(99)
	rnd := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / (1 << 53)
	}
	splats := make([]splat, 300)
	for i := range splats {
		splats[i] = splat{
			Pos:    vec.New(rnd(), rnd(), rnd()),
			Radius: 1 + 2*rnd(),
			Color:  hybrid.RGBA{R: rnd(), G: rnd(), B: rnd(), A: 1},
		}
	}
	return cam, splats
}

func clipRender(t *testing.T, cam Camera, splats []splat, clip bool, near, far float32) *Framebuffer {
	t.Helper()
	fb, err := NewFramebuffer(80, 80)
	if err != nil {
		t.Fatal(err)
	}
	fb.Clear(hybrid.RGBA{})
	rast := NewRasterizer(fb, cam)
	rast.ClipDepth, rast.ClipNear, rast.ClipFar = clip, near, far
	drawSplats(rast, splats)
	return fb
}

func sameFB(a, b *Framebuffer) bool {
	for i := range a.Color {
		if math.Float32bits(a.Color[i]) != math.Float32bits(b.Color[i]) {
			return false
		}
	}
	for i := range a.Depth {
		if math.Float32bits(a.Depth[i]) != math.Float32bits(b.Depth[i]) {
			return false
		}
	}
	return true
}

// TestRasterizerClipDepth pins the depth-slab clip the sort-last
// worker pass relies on: clipping to the splats' own DepthRange
// changes nothing, an empty slab drops everything, and a slab around
// one subset draws exactly that subset.
func TestRasterizerClipDepth(t *testing.T) {
	cam, splats := clipFixture(t)

	box := vec.Empty()
	for _, s := range splats {
		box = box.ExtendPoint(s.Pos)
	}
	near, far, ok := cam.DepthRange(box)
	if !ok {
		t.Fatal("DepthRange failed for the splat cloud")
	}

	plain := clipRender(t, cam, splats, false, 0, 0)
	if !sameFB(clipRender(t, cam, splats, true, near, far), plain) {
		t.Error("clipping to the cloud's own depth slab changed the image")
	}

	// A slab behind everything: nothing survives.
	empty := clipRender(t, cam, splats, true, far+1, far+2)
	background, err := NewFramebuffer(80, 80)
	if err != nil {
		t.Fatal(err)
	}
	background.Clear(hybrid.RGBA{})
	if !sameFB(empty, background) {
		t.Error("an excluding depth slab still wrote fragments")
	}

	// Split the cloud by each splat's projected depth at the slab
	// midpoint; clipping the full batch to the near half's slab must
	// draw exactly the near half.
	mid := (near + far) / 2
	var nearHalf []splat
	for _, s := range splats {
		if _, _, depth, ok := cam.WorldToScreen(s.Pos, 80, 80); ok && float32(depth) <= mid {
			nearHalf = append(nearHalf, s)
		}
	}
	if len(nearHalf) == 0 || len(nearHalf) == len(splats) {
		t.Fatalf("degenerate split: %d of %d near", len(nearHalf), len(splats))
	}
	if !sameFB(clipRender(t, cam, splats, true, near, mid), clipRender(t, cam, nearHalf, false, 0, 0)) {
		t.Error("clipped full batch differs from unclipped near half")
	}

	// Lines route through the generic fragment emitter; the slab must
	// drop their fragments too.
	lineFB, err := NewFramebuffer(80, 80)
	if err != nil {
		t.Fatal(err)
	}
	lineFB.Clear(hybrid.RGBA{})
	rast := NewRasterizer(lineFB, cam)
	rast.ClipDepth, rast.ClipNear, rast.ClipFar = true, far+1, far+2
	rast.DrawLine(vec.New(0, 0, 0), vec.New(1, 1, 1), 1, hybrid.RGBA{R: 1, A: 1}, hybrid.RGBA{B: 1, A: 1})
	if !sameFB(lineFB, background) {
		t.Error("excluding depth slab did not clip line fragments")
	}
}
