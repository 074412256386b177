package render

import (
	"bytes"
	"fmt"

	"repro/internal/wire"
)

// Framebuffer RLE codec — the wire format of the remote service's
// server-rendered ("thin client") mode. A rendered frame is mostly
// background (zero color, +Inf depth), so word-level run-length
// encoding shrinks the ~w*h*20-byte raw framebuffer to roughly the
// size of its covered pixels while staying bit-exact: both the color
// and depth planes round-trip losslessly, so a server-rendered frame
// is indistinguishable from one rendered locally.
//
// Layout (little-endian):
//
//	magic "ACFB" | u32 version | u32 w | u32 h |
//	RLE(color words, w*h*4) | RLE(depth words, w*h)
//
// Each plane is wire's word-RLE op stream over the float32 bits
// (wire.AppendRLE), the stream all four picture codecs — this one,
// quant.go, partial.go and delta.go — and the ACHY volume share. The
// encoder reads fb.Color and fb.Depth through their byte views; a
// big-endian host swaps the words in a plane borrowed from the scratch
// list to encode, and in place after decoding.

var magicFB = [4]byte{'A', 'C', 'F', 'B'}

const fbCodecVersion = 1

// CompressFramebuffer losslessly encodes fb's color and depth planes
// with word-level RLE.
func CompressFramebuffer(fb *Framebuffer) []byte {
	sc := getScratch()
	defer putScratch(sc)
	out := wire.Begin(sc.ops[:0], magicFB, fbCodecVersion, 4)
	out = wire.U32s(out, uint32(fb.W), uint32(fb.H))
	for _, plane := range [2][]float32{fb.Color, fb.Depth} {
		b := wire.F32Bytes(plane)
		if !wire.NativeLE {
			sc.plane = append(sc.plane[:0], b...)
			b = sc.plane
			wire.SwapWords(b)
		}
		out = wire.AppendRLE(out, b)
	}
	sc.ops = out
	return bytes.Clone(out)
}

// PlausibleSize reports whether w x h is a framebuffer the remote
// service renders — at most 4096 a side and 2²² pixels — the bound
// every picture decoder and every render request is held to.
func PlausibleSize(w, h int) bool {
	return w >= 1 && h >= 1 && w <= 4096 && h <= 4096 && w*h <= 1<<22
}

// openFramebuffer reads the header the lossless and quantized codecs
// share — magic | u32 version | u32 w | u32 h — and returns the image
// size and the op stream behind it, bounded for perPixel words a pixel.
func openFramebuffer(what string, data []byte, magic [4]byte, version uint64, perPixel int64) (w, h int, ops []byte, err error) {
	rd := wire.Open(what, data, magic, version, 4, false)
	w, h = int(rd.U32()), int(rd.U32())
	if !PlausibleSize(w, h) {
		rd.Fail("implausible size %dx%d", w, h)
	}
	ops = rd.Take(rd.Len())
	rd.RLEBound(len(ops), int64(w)*int64(h)*perPixel)
	return w, h, ops, rd.Err()
}

// DecompressFramebuffer decodes a blob produced by
// CompressFramebuffer. Malformed input returns an error; it never
// panics.
func DecompressFramebuffer(data []byte) (*Framebuffer, error) {
	w, h, rest, err := openFramebuffer("render: framebuffer", data, magicFB, fbCodecVersion, 5)
	if err != nil {
		return nil, err
	}
	// Not NewFramebuffer: every word is decoded below, none needs clearing.
	fb := &Framebuffer{W: w, H: h, Color: make([]float32, 4*w*h), Depth: make([]float32, w*h)}
	color, depth := wire.F32Bytes(fb.Color), wire.F32Bytes(fb.Depth)
	if rest, err = wire.DecodeRLE(rest, color); err != nil {
		return nil, fmt.Errorf("render: color plane: %w", err)
	}
	if rest, err = wire.DecodeRLE(rest, depth); err != nil {
		return nil, fmt.Errorf("render: depth plane: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("render: %d trailing bytes after framebuffer", len(rest))
	}
	wire.SwapWords(color)
	wire.SwapWords(depth)
	return fb, nil
}
