package sos

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fieldline"
	"repro/internal/hybrid"
	"repro/internal/render"
	"repro/internal/vec"
)

// RMSE returns the root-mean-square difference between the luminance
// of two equal-size framebuffers.
func RMSE(a, b *render.Framebuffer) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	var sum float64
	for y := 0; y < a.H; y++ {
		for x := 0; x < a.W; x++ {
			d := a.Luminance(x, y) - b.Luminance(x, y)
			sum += d * d
		}
	}
	return math.Sqrt(sum / float64(a.W*a.H)), nil
}

// PSNR returns the peak signal-to-noise ratio (dB) between two frames,
// treating luminance 1.0 as peak. Identical frames return +Inf.
func PSNR(a, b *render.Framebuffer) (float64, error) {
	rmse, err := RMSE(a, b)
	if err != nil {
		return 0, err
	}
	if rmse == 0 {
		return math.Inf(1), nil
	}
	return 20 * math.Log10(1/rmse), nil
}

// The OIT transparent variant must produce nearly the same image as the
// depth-sorted transparent technique (both composite the same fragments
// back-to-front; OIT just does it per pixel at resolve time).
func TestOITMatchesSortedTransparency(t *testing.T) {
	set := []*fieldline.Line{helix(50), helix(70), straightLine(30)}
	cam := testCam(t)
	opts := DefaultOptions(4)
	opts.FocusCenter = vec.New(0, 0, 0)
	opts.FocusRadius = 1.2

	fbSorted, _ := render.NewFramebuffer(96, 96)
	RenderLines(fbSorted, cam, set, TechTransparent, opts)
	fbOIT, _ := render.NewFramebuffer(96, 96)
	RenderLines(fbOIT, cam, set, TechTransparentOIT, opts)

	rmse, err := RMSE(fbSorted, fbOIT)
	if err != nil {
		t.Fatal(err)
	}
	// Per-line sorting is approximate (the paper's point); OIT is
	// exact, so small differences are expected — but the images must
	// agree closely.
	if rmse > 0.05 {
		t.Errorf("OIT and sorted transparency diverge: RMSE %.4f", rmse)
	}
	if fbOIT.CoveredPixels(0.01) == 0 {
		t.Error("OIT variant rendered nothing")
	}
}

func TestOITTechniqueName(t *testing.T) {
	for _, tech := range Techniques() {
		if tech == TechTransparentOIT {
			t.Error("the nine-panel list holds the OIT extension")
		}
	}
	if TechTransparentOIT.String() != "transparent-oit" {
		t.Errorf("name = %q", TechTransparentOIT.String())
	}
}

func frame(t *testing.T, w, h int, lum float64) *render.Framebuffer {
	t.Helper()
	fb, err := render.NewFramebuffer(w, h)
	if err != nil {
		t.Fatal(err)
	}
	fb.Clear(hybrid.RGBA{R: lum, G: lum, B: lum, A: 1})
	return fb
}

func TestRMSEIdentical(t *testing.T) {
	a := frame(t, 8, 8, 0.5)
	b := frame(t, 8, 8, 0.5)
	got, err := RMSE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("RMSE of identical frames = %v", got)
	}
}

func TestRMSEUniformDifference(t *testing.T) {
	a := frame(t, 8, 8, 0.75)
	b := frame(t, 8, 8, 0.25)
	got, err := RMSE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-6 {
		t.Errorf("RMSE = %v, want 0.5", got)
	}
}

func TestRMSESizeMismatch(t *testing.T) {
	a := frame(t, 8, 8, 0)
	b := frame(t, 4, 8, 0)
	if _, err := RMSE(a, b); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestPSNR(t *testing.T) {
	a := frame(t, 8, 8, 0.5)
	b := frame(t, 8, 8, 0.5)
	p, err := PSNR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p, 1) {
		t.Errorf("PSNR of identical frames = %v, want +Inf", p)
	}
	c := frame(t, 8, 8, 0.4)
	p2, err := PSNR(a, c)
	if err != nil {
		t.Fatal(err)
	}
	want := 20 * math.Log10(1/0.1)
	if math.Abs(p2-want) > 1e-6 {
		t.Errorf("PSNR = %v, want %v", p2, want)
	}
}
