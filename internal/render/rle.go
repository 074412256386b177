package render

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"unsafe"

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
// Each plane is a stream of ops over 4-byte little-endian words
// (float32 bits):
//
//	control c < 0x80:  c+1 literal words follow        (1..128)
//	control c >= 0x80: next word repeats (c&0x7f)+2 times (2..129)
//
// The op stream carries all four picture codecs — this one, quant.go,
// partial.go and delta.go — and one pair writes and reads it over byte
// planes, appendRLEPlane and decodeRLEPlane.
//
// Byte order: on a little-endian host a []float32's bytes already are
// the wire words, so the encoder reads fb.Color and fb.Depth through a
// byte view (floatBytes) and the decoder writes into the new frame's.
// A big-endian host, told apart by binary.NativeEndian, swaps each
// word (swapWords): into a plane borrowed from the scratch list to
// encode, in place after decoding.

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
		b := floatBytes(plane)
		if !nativeLE {
			sc.plane = append(sc.plane[:0], b...)
			b = sc.plane
			swapWords(b)
		}
		out = appendRLEPlane(out, b)
	}
	sc.ops = out
	return bytes.Clone(out)
}

// nativeLE reports whether the host stores a float32 in wire order.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes views a float32 plane as its bytes: no copy, and a NaN
// keeps its payload.
func floatBytes(plane []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(plane))), 4*len(plane))
}

// swapWords turns b's 4-byte words from host order to wire order, or
// back: it reverses each word's bytes on a big-endian host only.
func swapWords(b []byte) {
	if nativeLE {
		return
	}
	for i := 0; i+4 <= len(b); i += 4 {
		b[i], b[i+1], b[i+2], b[i+3] = b[i+3], b[i+2], b[i+1], b[i]
	}
}

// PlausibleSize reports whether w x h is a framebuffer the remote
// service renders — at most 4096 a side and 2²² pixels — the bound
// every picture decoder and every render request is held to.
func PlausibleSize(w, h int) bool {
	return w >= 1 && h >= 1 && w <= 4096 && h <= 4096 && w*h <= 1<<22
}

// rleBound fails rd unless an n-byte op stream can decode to the given
// number of words: the densest op yields 129 words per 5 bytes. The
// four framebuffer and delta decoders apply it before they allocate a
// plane — their blobs carry no checksum and no length to count against,
// so this is what keeps a few header bytes from sizing the allocation.
func rleBound(rd *wire.Reader, n int, words int64) {
	if int64(n)*129 < words*5 {
		rd.Fail("%d bytes of RLE ops cannot encode %d words", n, words)
	}
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
	rleBound(&rd, len(ops), int64(w)*int64(h)*perPixel)
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
	color, depth := floatBytes(fb.Color), floatBytes(fb.Depth)
	if rest, err = decodeRLEPlane(rest, color); err != nil {
		return nil, fmt.Errorf("render: color plane: %w", err)
	}
	if rest, err = decodeRLEPlane(rest, depth); err != nil {
		return nil, fmt.Errorf("render: depth plane: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("render: %d trailing bytes after framebuffer", len(rest))
	}
	swapWords(color)
	swapWords(depth)
	return fb, nil
}

// appendRLEPlane encodes the 4-byte words of plane as RLE ops, greedily:
// a run of two or more equal words becomes repeat ops of at most 129, a
// single word left over from such a run starts the next literal run,
// and the words between runs go out as literal ops of at most 128.
func appendRLEPlane(out, plane []byte) []byte {
	le := binary.LittleEndian
	for i, n := 0, len(plane); i < n; {
		// Literals reach to the next word that equals its successor.
		p := plane[i:]
		for len(p) >= 8 && le.Uint32(p) != le.Uint32(p[4:]) {
			p = p[4:]
		}
		k := n - len(p)
		if len(p) < 8 {
			k = n
		}
		for i < k {
			c := min(k-i, 4*128)
			out = append(append(out, byte(c/4-1)), plane[i:i+c]...)
			i += c
		}
		if i == n {
			break
		}
		// The run from i, extended eight bytes at a time.
		w := uint64(le.Uint32(p))
		for p = p[8:]; len(p) >= 8 && le.Uint64(p) == w|w<<32; {
			p = p[8:]
		}
		if len(p) >= 4 && uint64(le.Uint32(p)) == w {
			p = p[4:]
		}
		for j := n - len(p); j-i >= 8; i += min(j-i, 4*129) {
			out = append(out, byte(0x80|(min(j-i, 4*129)/4-2)), plane[i], plane[i+1], plane[i+2], plane[i+3])
		}
	}
	return out
}

// decodeRLEPlane fills dst, a whole number of words, from the op stream
// and returns the unconsumed remainder. Malformed input errors; it
// never panics.
func decodeRLEPlane(data, dst []byte) ([]byte, error) {
	for len(dst) > 0 {
		if len(data) == 0 {
			return nil, fmt.Errorf("stream ended %d words short", len(dst)/4)
		}
		c := data[0]
		data = data[1:]
		if c < 0x80 {
			n := 4 * (int(c) + 1)
			if n > len(dst) {
				return nil, fmt.Errorf("literal run of %d overruns plane", n/4)
			}
			if len(data) < n {
				return nil, fmt.Errorf("literal run truncated")
			}
			copy(dst, data[:n])
			data, dst = data[n:], dst[n:]
		} else {
			n := 4 * (int(c&0x7f) + 2)
			if n > len(dst) {
				return nil, fmt.Errorf("repeat run of %d overruns plane", n/4)
			}
			if len(data) < 4 {
				return nil, fmt.Errorf("repeat run truncated")
			}
			for f := copy(dst, data[:4]); f < n; f *= 2 { // fill by doubling
				copy(dst[f:n], dst[:f])
			}
			data, dst = data[4:], dst[n:]
		}
	}
	return data, nil
}
