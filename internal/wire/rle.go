package wire

import (
	"fmt"
	"unsafe"
)

// The word-RLE op stream: ops over 4-byte words in wire order (a
// float32 plane's bits, or any byte plane cut into words),
//
//	control c < 0x80:  c+1 literal words follow           (1..128)
//	control c >= 0x80: the next word repeats (c&0x7f)+2 times (2..129)
//
// It carries the ACHY density volume and the three picture codecs
// (ACFQ, ACPB, ACDL): one pair writes and reads it over byte
// planes, AppendRLE and DecodeRLE. A plane that is mostly one word —
// background pixels, empty voxels — shrinks to the size of the rest.
//
// Byte order: on a little-endian host a []float32's bytes already are
// the wire words, so an encoder reads a float32 plane through its byte
// view (F32Bytes) and a decoder writes into the new plane's. A
// big-endian host swaps each word (SwapWords): in a copy to encode, in
// place after decoding.

// F32Bytes views a float32 plane as its bytes: no copy, and a NaN keeps
// its payload.
func F32Bytes(plane []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(plane))), 4*len(plane))
}

// SwapWords turns b's 4-byte words from host order to wire order, or
// back: it reverses each word's bytes on a big-endian host only.
func SwapWords(b []byte) {
	if NativeLE {
		return
	}
	for i := 0; i+4 <= len(b); i += 4 {
		b[i], b[i+1], b[i+2], b[i+3] = b[i+3], b[i+2], b[i+1], b[i]
	}
}

// RLEBound fails r unless an n-byte op stream can decode to the given
// number of words: the densest op yields 129 words per 5 bytes. A
// decoder applies it before it allocates the plane, so a few header
// bytes cannot size the allocation.
func (r *Reader) RLEBound(n int, words int64) {
	if int64(n)*129 < words*5 {
		r.Fail("%d bytes of RLE ops cannot encode %d words", n, words)
	}
}

// AppendRLE encodes the 4-byte words of plane as RLE ops, greedily: a
// run of two or more equal words becomes repeat ops of at most 129, a
// single word left over from such a run starts the next literal run,
// and the words between runs go out as literal ops of at most 128. The
// ops take at most len(plane) + ⌈len(plane)/512⌉ bytes: one control
// byte per 128 literal words, and a repeat op is never longer than the
// words it stands for.
func AppendRLE(out, plane []byte) []byte {
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

// DecodeRLE fills dst, a whole number of words, from the op stream and
// returns the unconsumed remainder. Malformed input errors; it never
// panics.
func DecodeRLE(data, dst []byte) ([]byte, error) {
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
