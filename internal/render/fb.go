// Package render is a software rasterizer standing in for the
// commodity graphics hardware (nVidia GeForce class) the paper renders
// on. It provides the primitives both visualization techniques need:
// depth-buffered points, lines, triangles and triangle strips;
// programmable fragment shading (the stand-in for register combiners /
// bump mapping); alpha blending with back-to-front compositing; and
// additive splatting for dense particle clouds.
//
// Rendering runs through a tile-binned parallel backend: the batched
// entry points (DrawPointBatch, DrawLineBatch,
// DrawTriangleStripBatchFunc, or a mixed Batch) project and bin primitives
// into fixed screen tiles, then rasterize the tiles concurrently —
// each tile owned by exactly one worker, primitives replayed in
// submission order, so the image is bit-identical to the serial
// immediate-mode path at every worker count with no locks or atomics
// on pixel data. Point splats read a precomputed Gaussian kernel table
// instead of calling math.Exp per fragment, and triangle fill steps
// affine edge functions with early screen-bounds rejection. Triangles
// are indexed — a vertex shared by the triangles of a strip is stored
// and transformed once per flush — and every flush works in scratch
// borrowed from one bounded free list (see Batch and scratchList), so
// steady-state rendering allocates next to nothing.
//
// Absolute speed is not the reproduction target — the *ratios* between
// techniques (triangles per field line, hybrid vs full-resolution
// volume cost) are, and those are preserved because every primitive
// pays the same per-fragment cost model as the hardware path it
// replaces.
package render

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math"
	"os"

	"repro/internal/hybrid"
)

// Framebuffer is an RGBA color buffer with a float32 depth buffer.
// Depth follows the OpenGL convention: after projection, smaller values
// are nearer; the buffer clears to +Inf.
type Framebuffer struct {
	W, H  int
	Color []float32 // RGBA, 4 per pixel
	Depth []float32
}

// NewFramebuffer allocates a w x h framebuffer cleared to transparent
// black and far depth.
func NewFramebuffer(w, h int) (*Framebuffer, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("render: framebuffer size %dx%d invalid", w, h)
	}
	fb := &Framebuffer{
		W: w, H: h,
		Color: make([]float32, w*h*4),
		Depth: make([]float32, w*h),
	}
	fb.Clear(hybrid.RGBA{})
	return fb, nil
}

// Clear fills the color buffer with c and resets depth to +Inf.
func (fb *Framebuffer) Clear(c hybrid.RGBA) {
	inf := float32(math.Inf(1))
	for i := 0; i < len(fb.Depth); i++ {
		fb.Color[i*4+0] = float32(c.R)
		fb.Color[i*4+1] = float32(c.G)
		fb.Color[i*4+2] = float32(c.B)
		fb.Color[i*4+3] = float32(c.A)
		fb.Depth[i] = inf
	}
}

// At returns the color at pixel (x, y).
func (fb *Framebuffer) At(x, y int) hybrid.RGBA {
	i := (y*fb.W + x) * 4
	return hybrid.RGBA{
		R: float64(fb.Color[i]),
		G: float64(fb.Color[i+1]),
		B: float64(fb.Color[i+2]),
		A: float64(fb.Color[i+3]),
	}
}

// DepthAt returns the depth at pixel (x, y).
func (fb *Framebuffer) DepthAt(x, y int) float32 { return fb.Depth[y*fb.W+x] }

// BlendMode selects how a fragment combines with the stored color.
type BlendMode int

const (
	// BlendOpaque replaces the stored color (depth write + test).
	BlendOpaque BlendMode = iota
	// BlendAlpha composites src over dst (straight alpha).
	BlendAlpha
	// BlendAdditive adds src scaled by alpha — the accumulation mode
	// used for dense particle splatting where many dim points merge
	// into a bright volume.
	BlendAdditive
)

// writeFragment applies the depth test and blend mode for one fragment.
func (fb *Framebuffer) writeFragment(x, y int, depth float32, c hybrid.RGBA, mode BlendMode, depthTest, depthWrite bool) {
	if x < 0 || x >= fb.W || y < 0 || y >= fb.H {
		return
	}
	di := y*fb.W + x
	if depthTest && depth > fb.Depth[di] {
		return
	}
	ci := di * 4
	switch mode {
	case BlendOpaque:
		fb.Color[ci] = float32(c.R)
		fb.Color[ci+1] = float32(c.G)
		fb.Color[ci+2] = float32(c.B)
		fb.Color[ci+3] = float32(c.A)
	case BlendAlpha:
		a := float32(c.A)
		fb.Color[ci] = float32(c.R)*a + fb.Color[ci]*(1-a)
		fb.Color[ci+1] = float32(c.G)*a + fb.Color[ci+1]*(1-a)
		fb.Color[ci+2] = float32(c.B)*a + fb.Color[ci+2]*(1-a)
		fb.Color[ci+3] = a + fb.Color[ci+3]*(1-a)
	case BlendAdditive:
		a := float32(c.A)
		fb.Color[ci] += float32(c.R) * a
		fb.Color[ci+1] += float32(c.G) * a
		fb.Color[ci+2] += float32(c.B) * a
		fb.Color[ci+3] += a
	}
	if depthWrite {
		fb.Depth[di] = depth
	}
}

// ToImage converts the framebuffer to an 8-bit image, clamping each
// channel.
func (fb *Framebuffer) ToImage() *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, fb.W, fb.H))
	for y := 0; y < fb.H; y++ {
		for x := 0; x < fb.W; x++ {
			i := (y*fb.W + x) * 4
			img.SetRGBA(x, y, color.RGBA{
				R: clamp8(fb.Color[i]),
				G: clamp8(fb.Color[i+1]),
				B: clamp8(fb.Color[i+2]),
				A: 255,
			})
		}
	}
	return img
}

// WritePNG saves the framebuffer as a PNG file.
func (fb *Framebuffer) WritePNG(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("render: %w", err)
	}
	defer f.Close()
	if err := png.Encode(f, fb.ToImage()); err != nil {
		return fmt.Errorf("render: encoding %s: %w", path, err)
	}
	return f.Close()
}

// Luminance returns the perceptual luminance of pixel (x, y), used by
// the image-statistics experiments.
func (fb *Framebuffer) Luminance(x, y int) float64 {
	c := fb.At(x, y)
	return 0.2126*c.R + 0.7152*c.G + 0.0722*c.B
}

// CoveredPixels counts pixels whose luminance exceeds the threshold —
// a cheap structure metric for comparing renderings.
func (fb *Framebuffer) CoveredPixels(threshold float64) int {
	n := 0
	for y := 0; y < fb.H; y++ {
		for x := 0; x < fb.W; x++ {
			if fb.Luminance(x, y) > threshold {
				n++
			}
		}
	}
	return n
}

func clamp8(v float32) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 255
	}
	return uint8(v*255 + 0.5)
}
