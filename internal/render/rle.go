package render

import (
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
// Each plane is a stream of ops over uint32 words (float32 bits):
//
//	control c < 0x80:  c+1 literal words follow        (1..128)
//	control c >= 0x80: next word repeats (c&0x7f)+2 times (2..129)
//
// The same op stream is the core of the two derived wire codecs:
// CompressDelta (delta.go — XOR residuals of two byte streams, for
// frame-to-frame transfers; it reads and writes the ops over a byte
// plane, appendRLEPlane/decodeRLEPlane) and CompressFramebufferQuantized
// (quant.go — packed 8-bit RGBA preview images, plain uint32 words).

var magicFB = [4]byte{'A', 'C', 'F', 'B'}

const fbCodecVersion = 1

// CompressFramebuffer losslessly encodes fb's color and depth planes
// with word-level RLE.
func CompressFramebuffer(fb *Framebuffer) []byte {
	out := wire.Begin(make([]byte, 0, 16+len(fb.Color)), magicFB, fbCodecVersion, 4)
	out = wire.U32s(out, uint32(fb.W), uint32(fb.H))
	out = appendRLEWords(out, bitWords(fb.Color))
	return appendRLEWords(out, bitWords(fb.Depth))
}

// bitWords views a float32 plane as its bit patterns, the words the RLE
// ops run over: no copy, and a NaN keeps its payload.
func bitWords(plane []float32) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(plane))), len(plane))
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
	if w < 1 || h < 1 || w > 1<<16 || h > 1<<16 || int64(w)*int64(h) > 1<<28 {
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
	fb, err := NewFramebuffer(w, h)
	if err != nil {
		return nil, err
	}
	if rest, err = decodeRLEWords(rest, bitWords(fb.Color)); err != nil {
		return nil, fmt.Errorf("render: color plane: %w", err)
	}
	if rest, err = decodeRLEWords(rest, bitWords(fb.Depth)); err != nil {
		return nil, fmt.Errorf("render: depth plane: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("render: %d trailing bytes after framebuffer", len(rest))
	}
	return fb, nil
}

// appendRLEWords encodes words as RLE ops: the encoder of the op format
// for planes held as values — the framebuffer's float32s (through
// bitWords) and the quantized codec's packed words. A byte view of
// either would fix the machine's byte order into the wire format, so
// the delta codec's byte plane has its own pair in delta.go, held to
// this one's decisions by TestDeltaMatchesReference.
func appendRLEWords(out []byte, words []uint32) []byte {
	le := binary.LittleEndian
	i := 0
	litStart := -1
	flushLits := func(end int) {
		for litStart < end {
			n := end - litStart
			if n > 128 {
				n = 128
			}
			out = append(out, byte(n-1))
			for _, w := range words[litStart : litStart+n] {
				out = le.AppendUint32(out, w)
			}
			litStart += n
		}
		litStart = -1
	}
	for i < len(words) {
		run := 1
		for i+run < len(words) && words[i+run] == words[i] {
			run++
		}
		if run >= 2 {
			if litStart >= 0 {
				flushLits(i)
			}
			for run > 0 {
				n := run
				if n > 129 {
					n = 129
				}
				if n < 2 { // a leftover single word joins the next literal run
					break
				}
				out = append(out, byte(0x80|(n-2)))
				out = le.AppendUint32(out, words[i])
				i += n
				run -= n
			}
			if run == 1 {
				litStart = i
				i++
			}
			continue
		}
		if litStart < 0 {
			litStart = i
		}
		i++
	}
	if litStart >= 0 {
		flushLits(len(words))
	}
	return out
}

// decodeRLEWords fills dst exactly with uint32 words, returning the
// unconsumed remainder. Malformed input errors; it never panics.
func decodeRLEWords(data []byte, dst []uint32) ([]byte, error) {
	le := binary.LittleEndian
	i := 0
	for i < len(dst) {
		if len(data) == 0 {
			return nil, fmt.Errorf("stream ended %d words short", len(dst)-i)
		}
		c := data[0]
		data = data[1:]
		if c < 0x80 {
			n := int(c) + 1
			if n > len(dst)-i {
				return nil, fmt.Errorf("literal run of %d overruns plane", n)
			}
			if len(data) < 4*n {
				return nil, fmt.Errorf("literal run truncated")
			}
			for k := 0; k < n; k++ {
				dst[i+k] = le.Uint32(data[4*k:])
			}
			data = data[4*n:]
			i += n
		} else {
			n := int(c&0x7f) + 2
			if n > len(dst)-i {
				return nil, fmt.Errorf("repeat run of %d overruns plane", n)
			}
			if len(data) < 4 {
				return nil, fmt.Errorf("repeat run truncated")
			}
			v := le.Uint32(data)
			data = data[4:]
			for k := 0; k < n; k++ {
				dst[i+k] = v
			}
			i += n
		}
	}
	return data, nil
}
