package main

import (
	"testing"

	"repro/internal/hybrid"
	"repro/internal/render"
)

func frame(t *testing.T, w, h int, lum float64) *render.Framebuffer {
	t.Helper()
	fb, err := render.NewFramebuffer(w, h)
	if err != nil {
		t.Fatal(err)
	}
	fb.Clear(hybrid.RGBA{R: lum, G: lum, B: lum, A: 1})
	return fb
}

func TestGradientEnergyFlatVsEdge(t *testing.T) {
	flat := frame(t, 16, 16, 0.5)
	if g := gradientEnergy(flat); g != 0 {
		t.Errorf("flat frame gradient energy = %v", g)
	}
	// Half-white, half-black: one column of strong edges.
	edged := frame(t, 16, 16, 0)
	for y := 0; y < 16; y++ {
		for x := 8; x < 16; x++ {
			i := (y*16 + x) * 4
			edged.Color[i], edged.Color[i+1], edged.Color[i+2] = 1, 1, 1
		}
	}
	if g := gradientEnergy(edged); g <= 0 {
		t.Errorf("edged frame gradient energy = %v, want > 0", g)
	}
}
