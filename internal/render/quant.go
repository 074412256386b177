package render

import (
	"bytes"
	"fmt"

	"repro/internal/wire"
)

// Quantized framebuffer codec — the preview quality tier of the remote
// service's thin-client mode. Each pixel's RGBA is clamped to [0,1]
// and quantized to 8 bits per channel, packed into one 4-byte word,
// and RLE-compressed with the op stream of rle.go; the depth plane is
// dropped entirely. That is 4 bytes/pixel raw against the lossless
// codec's 20 — ~5x smaller before RLE — at preview-grade fidelity:
// the tier is LOSSY relative to the float framebuffer (quantized
// color, no depth) and must never be selected by default. It is,
// however, stable under its own round trip: decode → re-encode →
// decode is bit-identical, which is what the tests pin.
//
// Layout (little-endian):
//
//	magic "ACFQ" | u32 version | u32 w | u32 h |
//	RLE(packed RGBA words, w*h)
//
// with each word R | G<<8 | B<<16 | A<<24, channels quantized by the
// same clamp as Framebuffer.ToImage: on the wire, the bytes R, G, B, A
// in fb.Color's order, so both sides work on a byte plane borrowed
// from the scratch list and no host byte order enters.

var magicFBQ = [4]byte{'A', 'C', 'F', 'Q'}

const fbqCodecVersion = 1

// CompressFramebufferQuantized encodes fb's color plane at 8 bits per
// channel (lossy; depth is dropped).
func CompressFramebufferQuantized(fb *Framebuffer) []byte {
	sc := getScratch()
	defer putScratch(sc)
	plane := grow(&sc.plane, len(fb.Color))
	for i, v := range fb.Color {
		plane[i] = clamp8(v)
	}
	out := wire.Begin(sc.ops[:0], magicFBQ, fbqCodecVersion, 4)
	out = wire.U32s(out, uint32(fb.W), uint32(fb.H))
	sc.ops = appendRLEPlane(out, plane)
	return bytes.Clone(sc.ops)
}

// DecompressFramebufferQuantized decodes a blob produced by
// CompressFramebufferQuantized into a framebuffer with channel values
// v/255 and depth cleared to +Inf. Malformed input returns an error;
// it never panics.
func DecompressFramebufferQuantized(data []byte) (*Framebuffer, error) {
	w, h, rest, err := openFramebuffer("render: quantized framebuffer", data, magicFBQ, fbqCodecVersion, 1)
	if err != nil {
		return nil, err
	}
	sc := getScratch()
	defer putScratch(sc)
	plane := grow(&sc.plane, 4*w*h)
	if rest, err = decodeRLEPlane(rest, plane); err != nil {
		return nil, fmt.Errorf("render: quantized color plane: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("render: %d trailing bytes after quantized framebuffer", len(rest))
	}
	fb, err := NewFramebuffer(w, h)
	if err != nil {
		return nil, err
	}
	for i, v := range plane {
		fb.Color[i] = float32(v) / 255
	}
	return fb, nil
}

// DecodeFramebuffer decodes either framebuffer wire format, sniffing
// the magic — what a thin client calls when the server chose the codec
// from a negotiated quality tier.
func DecodeFramebuffer(data []byte) (*Framebuffer, error) {
	if len(data) >= 4 && [4]byte(data[:4]) == magicFBQ {
		return DecompressFramebufferQuantized(data)
	}
	return DecompressFramebuffer(data)
}
