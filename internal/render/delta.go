package render

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/wire"
)

// Delta codec — the word-RLE op stream of rle.go over a residual plane.
// CompressDelta ships a byte stream cur as its XOR against a base
// stream the receiver already holds: between nearby frames of a time
// series most of the encoding is unchanged, so the residual is
// dominated by zero words and the RLE collapses it to roughly the size
// of what actually moved. The round trip is lossless — DecompressDelta
// reconstructs cur bit for bit, and a trailing CRC of cur catches a
// receiver applying the delta to the wrong base.
//
// Layout (little-endian):
//
//	magic "ACDL" | u32 version | u32 len(cur) | u32 len(base) |
//	u32 crc32(cur) | RLE(residual words)
//
// The residual is cur XOR base byte-wise (the shorter stream padded
// with zeros), zero-padded to whole 4-byte words; the op stream is the
// one documented in rle.go. The plane stays bytes on both sides — a
// little-endian word of the stream is four bytes of cur in order — so
// the XOR is one subtle.XORBytes, a literal run is one copy, and only
// the run scan looks at words. The encoder borrows plane and op buffer
// from the scratch list; each side allocates only what it returns.

var magicDelta = [4]byte{'A', 'C', 'D', 'L'}

const (
	deltaCodecVersion = 1

	// maxDeltaLen bounds the reconstructed stream so a hostile header
	// cannot force an arbitrary allocation (mirrors the remote
	// protocol's 1 GiB message bound).
	maxDeltaLen = 1 << 30
)

// CompressDelta encodes cur as an RLE-compressed XOR residual against
// base. base may be any byte stream the receiver also holds (including
// empty, which degrades to RLE over cur itself).
func CompressDelta(cur, base []byte) []byte {
	sc := getScratch()
	defer putScratch(sc)
	plane := grow(&sc.residual, (len(cur)+3)&^3) // recycled: every byte is written below
	n := subtle.XORBytes(plane, cur, base[:min(len(base), len(cur))])
	copy(plane[n:], cur[n:])
	clear(plane[len(cur):])
	ops := wire.Begin(sc.ops[:0], magicDelta, deltaCodecVersion, 4)
	ops = wire.U32s(ops, uint32(len(cur)), uint32(len(base)), crc32.ChecksumIEEE(cur))
	sc.ops = appendRLEPlane(ops, plane)
	return bytes.Clone(sc.ops)
}

// DecompressDelta reconstructs the stream CompressDelta encoded,
// applying the residual in data to base. It fails cleanly — never
// panicking, never over-allocating — on malformed input, and fails
// with a checksum mismatch when base is not the stream the delta was
// encoded against.
func DecompressDelta(data, base []byte) ([]byte, error) {
	rd := wire.Open("render: delta", data, magicDelta, deltaCodecVersion, 4, false)
	curLen, baseLen, wantCRC := int64(rd.U32()), int64(rd.U32()), rd.U32()
	if curLen > maxDeltaLen {
		rd.Fail("implausible target size %d", curLen)
	}
	if baseLen != int64(len(base)) {
		rd.Fail("base is %d bytes, encoder used %d", len(base), baseLen)
	}
	rest := rd.Take(rd.Len())
	nw := (curLen + 3) / 4
	rleBound(&rd, len(rest), nw)
	if err := rd.Err(); err != nil {
		return nil, err
	}
	plane := make([]byte, 4*nw) // the one allocation: the caller keeps it as its next base
	rest, err := decodeRLEPlane(rest, plane)
	if err != nil {
		return nil, fmt.Errorf("render: delta residual: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("render: %d trailing bytes after delta residual", len(rest))
	}
	cur := plane[:curLen:curLen] // bits of the tail word beyond len(cur) are dropped
	subtle.XORBytes(cur, cur, base[:min(len(base), len(cur))])
	if got := crc32.ChecksumIEEE(cur); got != wantCRC {
		return nil, fmt.Errorf("render: delta reconstruction checksum mismatch (computed %08x, want %08x) — wrong base?", got, wantCRC)
	}
	return cur, nil
}

// appendRLEPlane encodes the 4-byte words of plane as the op stream of
// appendRLEWords, by the same greedy decisions: a run of two or more
// equal words becomes repeat ops of at most 129, a single word left
// over from such a run starts the next literal run, and the words
// between runs go out as literal ops of at most 128.
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
// and returns the unconsumed remainder; its refusals are those of
// decodeRLEWords. Malformed input errors; it never panics.
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
