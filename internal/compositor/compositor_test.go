package compositor

import (
	"math"
	"testing"

	"repro/internal/hybrid"
	"repro/internal/render"
	"repro/internal/vec"
)

const testW, testH = 96, 80

// testSplats builds a deterministic splat cloud with duplicated
// positions near the end, so equal-depth fragments land in different
// partitions and the composite's tie-breaking is actually exercised.
func testSplats(n int) []render.PointSplat {
	state := uint64(0x9e3779b97f4a7c15)
	rnd := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / (1 << 53)
	}
	splats := make([]render.PointSplat, n)
	for i := range splats {
		splats[i] = render.PointSplat{
			Pos:    vec.New(rnd(), rnd(), rnd()),
			Radius: 1 + 2*rnd(),
			Color:  hybrid.RGBA{R: rnd(), G: rnd(), B: rnd(), A: 1},
		}
	}
	// Re-submit a handful of early positions with new colors: identical
	// projected depth, later submission — the rasterizer's "last equal
	// fragment wins" rule must survive partitioning.
	for i := 0; i < n/10; i++ {
		dup := splats[i]
		dup.Color = hybrid.RGBA{R: rnd(), G: rnd(), B: rnd(), A: 1}
		splats = append(splats, dup)
	}
	return splats
}

func testCamera(t *testing.T) render.Camera {
	t.Helper()
	cam, err := render.LookAtBounds(vec.Box(vec.New(0, 0, 0), vec.New(1, 1, 1)),
		vec.New(0.4, 0.3, 1), math.Pi/3, float64(testW)/float64(testH))
	if err != nil {
		t.Fatal(err)
	}
	return cam
}

// rasterize draws the splats into a fresh cleared framebuffer with the
// opaque depth-tested point pass.
func rasterize(t *testing.T, cam render.Camera, splats []render.PointSplat) *render.Framebuffer {
	t.Helper()
	fb, err := render.NewFramebuffer(testW, testH)
	if err != nil {
		t.Fatal(err)
	}
	fb.Clear(hybrid.RGBA{})
	rast := render.NewRasterizer(fb, cam)
	rast.Mode = render.BlendOpaque
	rast.DrawPointBatch(splats)
	return fb
}

// partialize renders each contiguous partition into its own
// framebuffer and round-trips it through the wire codec, exactly as a
// fleet worker's reply arrives at the compositor.
func partialize(t *testing.T, cam render.Camera, splats []render.PointSplat, parts int) []*render.PartialFrame {
	t.Helper()
	partials := make([]*render.PartialFrame, parts)
	for k := 0; k < parts; k++ {
		lo, hi := k*len(splats)/parts, (k+1)*len(splats)/parts
		fb := rasterize(t, cam, splats[lo:hi])
		pf, err := render.DecompressPartial(render.CompressPartial(fb, k))
		if err != nil {
			t.Fatalf("partition %d: %v", k, err)
		}
		partials[k] = pf
	}
	return partials
}

// mustEqualFB compares two framebuffers bit for bit (Float32bits, so
// NaN payloads and signed zeros count too).
func mustEqualFB(t *testing.T, got, want *render.Framebuffer, label string) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("%s: size %dx%d, want %dx%d", label, got.W, got.H, want.W, want.H)
	}
	for i := range want.Color {
		if math.Float32bits(got.Color[i]) != math.Float32bits(want.Color[i]) {
			t.Fatalf("%s: color word %d = %g, want %g", label, i, got.Color[i], want.Color[i])
		}
	}
	for i := range want.Depth {
		if math.Float32bits(got.Depth[i]) != math.Float32bits(want.Depth[i]) {
			t.Fatalf("%s: depth word %d = %g, want %g", label, i, got.Depth[i], want.Depth[i])
		}
	}
}

// TestCompositeDepthMatchesSingleRasterizer is the compositor
// acceptance test: splitting a splat batch into 1, 2, 4 or 8
// contiguous partitions, rasterizing each alone, and depth-compositing
// the partials must reproduce the undivided rasterization bit for bit,
// at every composite worker count, regardless of partial arrival
// order.
func TestCompositeDepthMatchesSingleRasterizer(t *testing.T) {
	cam := testCamera(t)
	splats := testSplats(600)
	want := rasterize(t, cam, splats)

	for _, parts := range []int{1, 2, 4, 8} {
		partials := partialize(t, cam, splats, parts)
		// Reverse arrival order: Seq, not slice position, fixes the merge.
		for i, j := 0, len(partials)-1; i < j; i, j = i+1, j-1 {
			partials[i], partials[j] = partials[j], partials[i]
		}
		for _, workers := range []int{0, 1, 3, 7} {
			dst, err := render.NewFramebuffer(testW, testH)
			if err != nil {
				t.Fatal(err)
			}
			dst.Clear(hybrid.RGBA{})
			if err := CompositeDepth(dst, partials, workers); err != nil {
				t.Fatalf("parts=%d workers=%d: %v", parts, workers, err)
			}
			mustEqualFB(t, dst, want, "parts/workers composite")
		}
	}
}

// TestCompositeDepthEmptyAndNoPartials: an empty partial (worker whose
// sub-volume fell entirely off screen) contributes nothing, and
// compositing zero partials leaves the cleared background untouched.
func TestCompositeDepthEmptyAndNoPartials(t *testing.T) {
	cam := testCamera(t)
	splats := testSplats(200)
	want := rasterize(t, cam, splats)

	empty, err := render.NewFramebuffer(testW, testH)
	if err != nil {
		t.Fatal(err)
	}
	empty.Clear(hybrid.RGBA{})
	pfEmpty, err := render.DecompressPartial(render.CompressPartial(empty, 9))
	if err != nil {
		t.Fatal(err)
	}
	pf, err := render.DecompressPartial(render.CompressPartial(want, 0))
	if err != nil {
		t.Fatal(err)
	}

	dst, err := render.NewFramebuffer(testW, testH)
	if err != nil {
		t.Fatal(err)
	}
	dst.Clear(hybrid.RGBA{})
	if err := CompositeDepth(dst, []*render.PartialFrame{pf, pfEmpty}, 0); err != nil {
		t.Fatal(err)
	}
	mustEqualFB(t, dst, want, "empty partial changed the frame")

	bg, err := render.NewFramebuffer(testW, testH)
	if err != nil {
		t.Fatal(err)
	}
	bg.Clear(hybrid.RGBA{})
	blank, err := render.NewFramebuffer(testW, testH)
	if err != nil {
		t.Fatal(err)
	}
	blank.Clear(hybrid.RGBA{})
	if err := CompositeDepth(blank, nil, 0); err != nil {
		t.Fatal(err)
	}
	mustEqualFB(t, blank, bg, "no-partial composite dirtied the background")
}

// TestCompositeValidation: nil destinations, nil partials and size
// mismatches are rejected before any pixel moves.
func TestCompositeValidation(t *testing.T) {
	fbSmall, err := render.NewFramebuffer(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	fbBig, err := render.NewFramebuffer(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	good := &render.PartialFrame{FB: fbSmall}

	if err := CompositeDepth(nil, nil, 0); err == nil {
		t.Error("nil destination accepted")
	}
	if err := CompositeDepth(fbSmall, []*render.PartialFrame{nil}, 0); err == nil {
		t.Error("nil partial accepted")
	}
	if err := CompositeDepth(fbSmall, []*render.PartialFrame{{}}, 0); err == nil {
		t.Error("partial with nil framebuffer accepted")
	}
	if err := CompositeDepth(fbBig, []*render.PartialFrame{good}, 0); err == nil {
		t.Error("size mismatch accepted")
	}
}
