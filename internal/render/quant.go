package render

import (
	"fmt"

	"repro/internal/wire"
)

// Quantized framebuffer codec — the preview quality tier of the remote
// service's thin-client mode. Each pixel's RGBA is clamped to [0,1]
// and quantized to 8 bits per channel, packed into one uint32 word,
// and RLE-compressed with the shared op stream; the depth plane is
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
// same clamp as Framebuffer.ToImage.

var magicFBQ = [4]byte{'A', 'C', 'F', 'Q'}

const fbqCodecVersion = 1

// CompressFramebufferQuantized encodes fb's color plane at 8 bits per
// channel (lossy; depth is dropped).
func CompressFramebufferQuantized(fb *Framebuffer) []byte {
	words := make([]uint32, fb.W*fb.H)
	for i := range words {
		c := fb.Color[i*4:]
		words[i] = uint32(clamp8(c[0])) |
			uint32(clamp8(c[1]))<<8 |
			uint32(clamp8(c[2]))<<16 |
			uint32(clamp8(c[3]))<<24
	}
	out := wire.Begin(make([]byte, 0, 16+len(words)), magicFBQ, fbqCodecVersion, 4)
	out = wire.U32s(out, uint32(fb.W), uint32(fb.H))
	return appendRLEWords(out, words)
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
	words := make([]uint32, w*h)
	if rest, err = decodeRLEWords(rest, words); err != nil {
		return nil, fmt.Errorf("render: quantized color plane: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("render: %d trailing bytes after quantized framebuffer", len(rest))
	}
	fb, err := NewFramebuffer(w, h)
	if err != nil {
		return nil, err
	}
	for i, word := range words {
		fb.Color[i*4+0] = float32(word&0xff) / 255
		fb.Color[i*4+1] = float32(word>>8&0xff) / 255
		fb.Color[i*4+2] = float32(word>>16&0xff) / 255
		fb.Color[i*4+3] = float32(word>>24&0xff) / 255
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
