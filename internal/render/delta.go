package render

import (
	"fmt"
	"hash/crc32"

	"repro/internal/wire"
)

// Delta codec — the word-RLE machinery generalized to residual planes.
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
// with zeros), packed into little-endian uint32 words, the tail word
// zero-padded; the op stream is the one documented in rle.go.

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
	nw := (len(cur) + 3) / 4
	words := make([]uint32, nw)
	// XOR over the overlap, raw cur beyond it; assemble per word so the
	// zero-padded tail never reads out of bounds.
	for i := 0; i < nw; i++ {
		var w uint32
		for k := 0; k < 4; k++ {
			off := 4*i + k
			if off >= len(cur) {
				break
			}
			b := cur[off]
			if off < len(base) {
				b ^= base[off]
			}
			w |= uint32(b) << (8 * k)
		}
		words[i] = w
	}
	out := wire.Begin(make([]byte, 0, len(cur)/8+84), magicDelta, deltaCodecVersion, 4)
	out = wire.U32s(out, uint32(len(cur)), uint32(len(base)), crc32.ChecksumIEEE(cur))
	return appendRLEWords(out, words)
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
	words := make([]uint32, nw)
	rest, err := decodeRLEWords(rest, words)
	if err != nil {
		return nil, fmt.Errorf("render: delta residual: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("render: %d trailing bytes after delta residual", len(rest))
	}
	cur := make([]byte, curLen)
	for i, w := range words {
		for k := 0; k < 4; k++ {
			off := 4*i + k
			if off >= len(cur) {
				break
			}
			b := byte(w >> (8 * k))
			if off < len(base) {
				b ^= base[off]
			}
			cur[off] = b
		}
	}
	if got := crc32.ChecksumIEEE(cur); got != wantCRC {
		return nil, fmt.Errorf("render: delta reconstruction checksum mismatch (computed %08x, want %08x) — wrong base?", got, wantCRC)
	}
	return cur, nil
}
