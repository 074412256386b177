package render

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/wire"
)

// Depth-augmented framebuffer codec — the one lossless picture format:
// the remote service's lossless thin-client tier (CompressFramebuffer)
// and the sort-last render path's partials (CompressPartial). A
// rendered frame is mostly background (zero color, +Inf depth), so the
// codec ships only the bounding rectangle of the covered pixels, each
// with its RGBA words and its depth word (the compositor merges
// partials by depth), RLE-compressed with wire's word-RLE op stream.
// The round trip is bit-exact, so a server-rendered picture is
// indistinguishable from a local render.
//
// Layout (little-endian):
//
//	magic "ACPB" | u32 version | u32 w | u32 h | u32 seq |
//	u32 x0 | u32 y0 | u32 rw | u32 rh |
//	RLE(color words of rect, rw*rh*4) | RLE(depth words of rect, rw*rh)
//
// rw = rh = 0 encodes an empty frame (nothing rasterized — a cell
// entirely off screen); no plane data follows. seq is a partial's
// submission-order index, which fixes its place in the deterministic
// composite (compositor.CompositeDepth); a whole frame carries 0. A
// pixel is background only bit for bit: a −0 or a NaN color word, or
// any depth but +Inf, is covered and travels.

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

// background reports whether pixel i is, bit for bit, four +0 color
// words at depth +Inf.
func (fb *Framebuffer) background(i int) bool {
	c := fb.Color[4*i : 4*i+4]
	return math.Float32bits(fb.Depth[i]) == 0x7f800000 &&
		math.Float32bits(c[0])|math.Float32bits(c[1])|math.Float32bits(c[2])|math.Float32bits(c[3]) == 0
}

// coveredRect returns the bounding rectangle of fb's covered pixels,
// 0x0 at the origin when there are none. Down to the last covered
// row, each row is read only left and right of the rectangle so far.
func (fb *Framebuffer) coveredRect() (x0, y0, rw, rh int) {
	y1 := fb.H - 1
	for y1 >= 0 && fb.rowBackground(y1) {
		y1--
	}
	if y1 < 0 {
		return 0, 0, 0, 0
	}
	x0, x1, y0 := fb.W, -1, -1
	for y := 0; y <= y1; y++ {
		for x := 0; x < x0; x++ {
			if !fb.background(y*fb.W + x) {
				x0 = x
			}
		}
		for x := fb.W - 1; x >= x0 && x > x1; x-- {
			if !fb.background(y*fb.W + x) {
				x1 = x
			}
		}
		if y0 < 0 && x1 >= 0 {
			y0 = y
		}
	}
	return x0, y0, x1 - x0 + 1, y1 - y0 + 1
}

// rowBackground reports whether every pixel of row y is background.
func (fb *Framebuffer) rowBackground(y int) bool {
	for x := 0; x < fb.W; x++ {
		if !fb.background(y*fb.W + x) {
			return false
		}
	}
	return true
}

// CompressFramebuffer losslessly encodes fb's color and depth planes as
// a partial of sequence number 0, allocating only the blob it returns.
func CompressFramebuffer(fb *Framebuffer) []byte {
	sc := getScratch()
	defer putScratch(sc)
	sc.ops = appendPartial(sc.ops[:0], fb, 0, sc)
	return bytes.Clone(sc.ops)
}

// CompressPartial encodes fb as a depth-augmented partial framebuffer
// tagged with the partition sequence number seq.
func CompressPartial(fb *Framebuffer, seq int) []byte {
	return AppendPartial(nil, fb, seq)
}

// AppendPartial is CompressPartial appending to dst — the
// pooled-buffer form the render worker kernel uses.
func AppendPartial(dst []byte, fb *Framebuffer, seq int) []byte {
	sc := getScratch()
	defer putScratch(sc)
	return appendPartial(dst, fb, seq, sc)
}

func appendPartial(dst []byte, fb *Framebuffer, seq int, sc *flushScratch) []byte {
	x0, y0, rw, rh := fb.coveredRect()
	out := wire.Begin(wire.Grow(dst, 36+rw*rh*4), magicPB, pbCodecVersion, 4)
	out = wire.U32s(out, uint32(fb.W), uint32(fb.H), uint32(seq), uint32(x0), uint32(y0), uint32(rw), uint32(rh))
	// A rectangle of whole rows is contiguous in fb's planes, whose
	// bytes are the wire words on a little-endian host. Otherwise gather
	// its rows into one borrowed plane, its color words then its depth
	// words, in wire order. An empty rect encodes nothing.
	start, end := y0*fb.W, (y0+rh)*fb.W
	color, depth := wire.F32Bytes(fb.Color[4*start:4*end]), wire.F32Bytes(fb.Depth[start:end])
	if rw < fb.W || !wire.NativeLE {
		plane := grow(&sc.plane, 20*rw*rh)
		color, depth = plane[:16*rw*rh], plane[16*rw*rh:]
		for y := 0; y < rh; y++ {
			src := (y0+y)*fb.W + x0
			copy(color[16*rw*y:], wire.F32Bytes(fb.Color[4*src:4*(src+rw)]))
			copy(depth[4*rw*y:], wire.F32Bytes(fb.Depth[src:src+rw]))
		}
		wire.SwapWords(plane)
	}
	return wire.AppendRLE(wire.AppendRLE(out, color), depth)
}

// DecompressFramebuffer decodes a blob produced by CompressFramebuffer
// or CompressPartial into the frame alone. Malformed input returns an
// error; it never panics.
func DecompressFramebuffer(data []byte) (*Framebuffer, error) {
	var p PartialFrame
	err := decodePartial(data, &p)
	return p.FB, err
}

// DecompressPartial decodes a blob produced by CompressPartial.
// Malformed input returns an error; it never panics.
func DecompressPartial(data []byte) (*PartialFrame, error) {
	p := new(PartialFrame)
	if err := decodePartial(data, p); err != nil {
		return nil, err
	}
	return p, nil
}

func decodePartial(data []byte, p *PartialFrame) error {
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
		return err
	}
	// Background (+0 color as made, +Inf depth) outside the rectangle.
	// Whole rows decode in place; narrower ones through a borrowed plane.
	fb := &Framebuffer{W: w, H: h, Color: make([]float32, 4*w*h), Depth: make([]float32, w*h)}
	start, end := y0*w, (y0+rh)*w
	color, depth := wire.F32Bytes(fb.Color[4*start:4*end]), wire.F32Bytes(fb.Depth[start:end])
	inf := float32(math.Inf(1))
	fill(fb.Depth[:start], inf)
	fill(fb.Depth[end:], inf)
	sc := getScratch()
	defer putScratch(sc)
	if rw < w {
		fill(fb.Depth[start:end], inf)
		plane := grow(&sc.plane, 20*rw*rh)
		color, depth = plane[:16*rw*rh], plane[16*rw*rh:]
	}
	var err error
	if rest, err = wire.DecodeRLE(rest, color); err != nil {
		return fmt.Errorf("render: partial color plane: %w", err)
	}
	if rest, err = wire.DecodeRLE(rest, depth); err != nil {
		return fmt.Errorf("render: partial depth plane: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("render: %d trailing bytes after partial framebuffer", len(rest))
	}
	wire.SwapWords(color)
	wire.SwapWords(depth)
	for y := 0; y < rh && rw < w; y++ {
		dst := (y0+y)*w + x0
		copy(wire.F32Bytes(fb.Color[4*dst:4*(dst+rw)]), color[16*rw*y:])
		copy(wire.F32Bytes(fb.Depth[dst:dst+rw]), depth[4*rw*y:])
	}
	*p = PartialFrame{FB: fb, Seq: seq, X0: x0, Y0: y0, RW: rw, RH: rh}
	return nil
}
