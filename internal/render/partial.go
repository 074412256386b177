package render

import (
	"fmt"
	"math"

	"repro/internal/wire"
)

// Depth-augmented partial framebuffer codec — the wire format of the
// sort-last distributed render path. A worker that rasterized one
// octree cell's sub-volume produces an image that is mostly background
// (zero color, +Inf depth) outside the cell's screen footprint, so the
// codec ships only the bounding rectangle of the covered pixels, each
// with both its RGBA words and its depth word (the compositor needs
// depth per pixel to merge partials), RLE-compressed with wire's
// word-RLE op stream through one plane borrowed from the scratch list.
// The round trip is lossless: a decoded partial is bit-identical to
// the worker's framebuffer.
//
// Layout (little-endian):
//
//	magic "ACPB" | u32 version | u32 w | u32 h | u32 seq |
//	u32 x0 | u32 y0 | u32 rw | u32 rh |
//	RLE(color words of rect, rw*rh*4) | RLE(depth words of rect, rw*rh)
//
// rw = rh = 0 encodes an empty partial (nothing rasterized — a cell
// entirely off screen); no plane data follows. seq is the partition's
// submission-order index, which fixes its place in the deterministic
// composite (compositor.CompositeDepth).

var magicPB = [4]byte{'A', 'C', 'P', 'B'}

const pbCodecVersion = 1

// PartialFrame is one decoded sort-last partial: a worker's
// contribution to a composited frame. FB is a full-size framebuffer
// whose pixels outside the covered rectangle hold the cleared
// background; the rectangle fields let a compositor skip the
// untouched remainder.
type PartialFrame struct {
	FB     *Framebuffer
	Seq    int // partition index in splat submission order
	X0, Y0 int // covered rectangle origin
	RW, RH int // covered rectangle size; 0x0 = empty partial
}

// CompressPartial encodes fb as a depth-augmented partial framebuffer
// tagged with the partition sequence number seq. The covered
// rectangle is the bounding box of the pixels that differ from the
// cleared background (any color word non-zero, or depth finite).
func CompressPartial(fb *Framebuffer, seq int) []byte {
	return AppendPartial(nil, fb, seq)
}

// AppendPartial is CompressPartial appending to dst — the
// pooled-buffer form the render worker kernel uses.
func AppendPartial(dst []byte, fb *Framebuffer, seq int) []byte {
	inf := math.Float32bits(float32(math.Inf(1)))
	x0, y0, x1, y1 := fb.W, fb.H, -1, -1
	for y := 0; y < fb.H; y++ {
		for x := 0; x < fb.W; x++ {
			i := y*fb.W + x
			c := fb.Color[4*i : 4*i+4]
			if math.Float32bits(fb.Depth[i]) == inf && c[0] == 0 && c[1] == 0 && c[2] == 0 && c[3] == 0 {
				continue
			}
			x0 = min(x0, x)
			x1 = max(x1, x)
			y0 = min(y0, y)
			y1 = max(y1, y)
		}
	}
	rw, rh := 0, 0
	if x1 >= 0 {
		rw, rh = x1-x0+1, y1-y0+1
	} else {
		x0, y0 = 0, 0
	}
	out := wire.Begin(wire.Grow(dst, 36+rw*rh*4), magicPB, pbCodecVersion, 4)
	out = wire.U32s(out, uint32(fb.W), uint32(fb.H), uint32(seq), uint32(x0), uint32(y0), uint32(rw), uint32(rh))
	// Gather the rectangle's rows into one borrowed plane, its color
	// words then its depth words, in wire order. An empty rect gathers
	// and encodes nothing.
	sc := getScratch()
	defer putScratch(sc)
	plane := grow(&sc.plane, 20*rw*rh)
	color, depth := plane[:16*rw*rh], plane[16*rw*rh:]
	for y := 0; y < rh; y++ {
		src := (y0+y)*fb.W + x0
		copy(color[16*rw*y:], wire.F32Bytes(fb.Color[4*src:4*(src+rw)]))
		copy(depth[4*rw*y:], wire.F32Bytes(fb.Depth[src:src+rw]))
	}
	wire.SwapWords(plane)
	return wire.AppendRLE(wire.AppendRLE(out, color), depth)
}

// DecompressPartial decodes a blob produced by CompressPartial.
// Malformed input returns an error; it never panics.
func DecompressPartial(data []byte) (*PartialFrame, error) {
	rd := wire.Open("render: partial framebuffer", data, magicPB, pbCodecVersion, 4, false)
	w, h, seq := int(rd.U32()), int(rd.U32()), int(rd.U32())
	x0, y0, rw, rh := int(rd.U32()), int(rd.U32()), int(rd.U32()), int(rd.U32())
	if !PlausibleSize(w, h) {
		rd.Fail("implausible size %dx%d", w, h)
	}
	if (rw == 0) != (rh == 0) || rw < 0 || rh < 0 ||
		x0 < 0 || y0 < 0 || x0+rw > w || y0+rh > h {
		rd.Fail("rect %dx%d at (%d,%d) outside %dx%d frame", rw, rh, x0, y0, w, h)
	}
	rest := rd.Take(rd.Len())
	rd.RLEBound(len(rest), int64(rw)*int64(rh)*5)
	if err := rd.Err(); err != nil {
		return nil, err
	}
	fb, err := NewFramebuffer(w, h)
	if err != nil {
		return nil, err
	}
	p := &PartialFrame{FB: fb, Seq: seq, X0: x0, Y0: y0, RW: rw, RH: rh}
	sc := getScratch()
	defer putScratch(sc)
	plane := grow(&sc.plane, 20*rw*rh)
	color, depth := plane[:16*rw*rh], plane[16*rw*rh:]
	if rest, err = wire.DecodeRLE(rest, color); err != nil {
		return nil, fmt.Errorf("render: partial color plane: %w", err)
	}
	if rest, err = wire.DecodeRLE(rest, depth); err != nil {
		return nil, fmt.Errorf("render: partial depth plane: %w", err)
	}
	wire.SwapWords(plane)
	for y := 0; y < rh; y++ {
		dst := (y0+y)*w + x0
		copy(wire.F32Bytes(fb.Color[4*dst:4*(dst+rw)]), color[16*rw*y:])
		copy(wire.F32Bytes(fb.Depth[dst:dst+rw]), depth[4*rw*y:])
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("render: %d trailing bytes after partial framebuffer", len(rest))
	}
	return p, nil
}
