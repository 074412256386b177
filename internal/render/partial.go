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
// depth per pixel to merge partials), RLE-compressed with the same
// word-level op stream as the full-framebuffer codec in rle.go. The
// round trip is lossless: a decoded partial is bit-identical to the
// worker's framebuffer.
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
		row := y * fb.W
		for x := 0; x < fb.W; x++ {
			i := row + x
			ci := i * 4
			if math.Float32bits(fb.Depth[i]) == inf &&
				fb.Color[ci] == 0 && fb.Color[ci+1] == 0 &&
				fb.Color[ci+2] == 0 && fb.Color[ci+3] == 0 {
				continue
			}
			if x < x0 {
				x0 = x
			}
			if x > x1 {
				x1 = x
			}
			if y < y0 {
				y0 = y
			}
			if y > y1 {
				y1 = y
			}
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
	if rw == 0 {
		return out
	}
	// Gather the rectangle into contiguous planes so the shared RLE
	// core applies unchanged.
	color := make([]float32, rw*rh*4)
	depth := make([]float32, rw*rh)
	for y := 0; y < rh; y++ {
		src := (y0+y)*fb.W + x0
		copy(color[y*rw*4:(y+1)*rw*4], fb.Color[src*4:(src+rw)*4])
		copy(depth[y*rw:(y+1)*rw], fb.Depth[src:src+rw])
	}
	out = appendRLEWords(out, bitWords(color))
	out = appendRLEWords(out, bitWords(depth))
	return out
}

// DecompressPartial decodes a blob produced by CompressPartial.
// Malformed input returns an error; it never panics.
func DecompressPartial(data []byte) (*PartialFrame, error) {
	rd := wire.Open("render: partial framebuffer", data, magicPB, pbCodecVersion, 4, false)
	w, h, seq := int(rd.U32()), int(rd.U32()), int(rd.U32())
	x0, y0, rw, rh := int(rd.U32()), int(rd.U32()), int(rd.U32()), int(rd.U32())
	// Bound the framebuffer a blob can demand (the same 4096-cap the
	// service's render params enforce): a 36-byte header must not force
	// an arbitrary allocation.
	if w < 1 || h < 1 || w > 4096 || h > 4096 || int64(w)*int64(h) > 1<<22 {
		rd.Fail("implausible size %dx%d", w, h)
	}
	if (rw == 0) != (rh == 0) || rw < 0 || rh < 0 ||
		x0 < 0 || y0 < 0 || x0+rw > w || y0+rh > h {
		rd.Fail("rect %dx%d at (%d,%d) outside %dx%d frame", rw, rh, x0, y0, w, h)
	}
	rest := rd.Take(rd.Len())
	rleBound(&rd, len(rest), int64(rw)*int64(rh)*5)
	if err := rd.Err(); err != nil {
		return nil, err
	}
	fb, err := NewFramebuffer(w, h)
	if err != nil {
		return nil, err
	}
	p := &PartialFrame{FB: fb, Seq: seq, X0: x0, Y0: y0, RW: rw, RH: rh}
	if rw > 0 {
		color := make([]float32, rw*rh*4)
		depth := make([]float32, rw*rh)
		if rest, err = decodeRLEWords(rest, bitWords(color)); err != nil {
			return nil, fmt.Errorf("render: partial color plane: %w", err)
		}
		if rest, err = decodeRLEWords(rest, bitWords(depth)); err != nil {
			return nil, fmt.Errorf("render: partial depth plane: %w", err)
		}
		for y := 0; y < rh; y++ {
			dst := (y0+y)*w + x0
			copy(fb.Color[dst*4:(dst+rw)*4], color[y*rw*4:(y+1)*rw*4])
			copy(fb.Depth[dst:dst+rw], depth[y*rw:(y+1)*rw])
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("render: %d trailing bytes after partial framebuffer", len(rest))
	}
	return p, nil
}
