package render

import (
	"math"
	"testing"

	"repro/internal/hybrid"
	"repro/internal/vec"
)

func TestOITResolveOrderIndependence(t *testing.T) {
	// Two overlapping transparent fragments composited in both
	// submission orders must give the same result.
	red := hybrid.RGBA{R: 1, A: 0.5}
	blue := hybrid.RGBA{B: 1, A: 0.5}

	run := func(first, second hybrid.RGBA, d1, d2 float32) hybrid.RGBA {
		fb, _ := NewFramebuffer(4, 4)
		o := NewOITBuffer(4, 4)
		o.Add(1, 1, d1, first)
		o.Add(1, 1, d2, second)
		o.Resolve(fb)
		return fb.At(1, 1)
	}
	// red near (0.2), blue far (0.8): blue drawn first then red over it.
	a := run(red, blue, 0.2, 0.8)
	b := run(blue, red, 0.8, 0.2)
	if math.Abs(a.R-b.R) > 1e-6 || math.Abs(a.B-b.B) > 1e-6 {
		t.Errorf("order dependence: %+v vs %+v", a, b)
	}
	// Near red over far blue: red contribution dominates.
	if a.R <= a.B {
		t.Errorf("near red not dominant: %+v", a)
	}
}

func TestOITRespectsOpaqueDepth(t *testing.T) {
	fb, _ := NewFramebuffer(4, 4)
	// Opaque red at depth 0.5.
	fb.writeFragment(2, 2, 0.5, hybrid.RGBA{R: 1, A: 1}, BlendOpaque, true, true)
	o := NewOITBuffer(4, 4)
	// Transparent fragment BEHIND the opaque surface: discarded.
	o.Add(2, 2, 0.9, hybrid.RGBA{R: 0, G: 0, B: 1, A: 0.9})
	o.Resolve(fb)
	c := fb.At(2, 2)
	if c.B > 0.01 {
		t.Errorf("fragment behind opaque geometry leaked through: %+v", c)
	}
	// In front: composites.
	o.Add(2, 2, 0.1, hybrid.RGBA{R: 0, G: 0, B: 1, A: 0.5})
	o.Resolve(fb)
	c = fb.At(2, 2)
	if c.B < 0.4 {
		t.Errorf("fragment in front of opaque geometry missing: %+v", c)
	}
}

func TestOITBufferClearsAfterResolve(t *testing.T) {
	fb, _ := NewFramebuffer(2, 2)
	o := NewOITBuffer(2, 2)
	o.Add(0, 0, 0.5, hybrid.RGBA{R: 1, A: 1})
	o.Resolve(fb)
	if o.MaxDepthComplexity() != 0 {
		t.Error("buffer not cleared after resolve")
	}
}

func TestOITDepthComplexity(t *testing.T) {
	o := NewOITBuffer(2, 2)
	for i := 0; i < 5; i++ {
		o.Add(1, 0, float32(i), hybrid.RGBA{R: 1, A: 0.2})
	}
	o.Add(0, 0, 0, hybrid.RGBA{R: 1, A: 0.2})
	if got := o.MaxDepthComplexity(); got != 5 {
		t.Errorf("depth complexity %d, want 5", got)
	}
	if o.FragmentCount != 6 {
		t.Errorf("fragment count %d, want 6", o.FragmentCount)
	}
}

func TestAttachOITInterceptsRasterizer(t *testing.T) {
	fb, _ := NewFramebuffer(64, 64)
	cam, err := NewCamera(vec.New(0, 0, 5), vec.New(0, 0, 0), vec.New(0, 1, 0),
		math.Pi/3, 1, 0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRasterizer(fb, cam)
	r.Mode = BlendAlpha
	o := NewOITBuffer(64, 64)
	restore := r.AttachOIT(o)

	v := func(x, y float64, c hybrid.RGBA) Vertex {
		return Vertex{Pos: vec.New(x, y, 0), Color: c}
	}
	c := hybrid.RGBA{R: 1, A: 0.5}
	r.DrawTriangle(v(-1, -1, c), v(1, -1, c), v(0, 1, c))
	// Nothing lands in the framebuffer until Resolve.
	if fb.At(32, 32).R != 0 {
		t.Error("fragments reached framebuffer while OIT attached")
	}
	if o.FragmentCount == 0 {
		t.Fatal("OIT captured no fragments")
	}
	o.Resolve(fb)
	if fb.At(32, 32).R == 0 {
		t.Error("resolve produced nothing")
	}
	restore()
	// After restore, drawing writes directly again.
	r.DrawTriangle(v(-1, -1, c), v(1, -1, c), v(0, 1, c))
	if o.MaxDepthComplexity() != 0 {
		t.Error("fragments still captured after restore")
	}
}

// Property: resolving N identical fragments converges to the fragment
// color as N grows (repeated OVER with the same color).
func TestOITRepeatedCompositeConverges(t *testing.T) {
	fb, _ := NewFramebuffer(2, 2)
	o := NewOITBuffer(2, 2)
	c := hybrid.RGBA{R: 0.8, G: 0.2, B: 0.1, A: 0.5}
	for i := 0; i < 24; i++ {
		o.Add(0, 0, float32(i)*0.01, c)
	}
	o.Resolve(fb)
	got := fb.At(0, 0)
	if math.Abs(got.R-0.8) > 1e-3 || math.Abs(got.G-0.2) > 1e-3 {
		t.Errorf("repeated composite = %+v, want ~(0.8, 0.2, 0.1)", got)
	}
}

// MaxDepthComplexity returns the largest per-pixel fragment count
// currently stored — the "layers" statistic that bounded the hardware
// implementation.
func (o *OITBuffer) MaxDepthComplexity() int {
	m := 0
	for i := range o.lists {
		if len(o.lists[i]) > m {
			m = len(o.lists[i])
		}
	}
	return m
}
