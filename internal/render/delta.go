package render

import (
	"bytes"
	"crypto/subtle"
	"fmt"
	"hash/crc32"

	"repro/internal/wire"
)

// Delta codec — wire's word-RLE op stream over a residual plane.
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
// with zeros), zero-padded to whole 4-byte words. A word of the stream
// is four bytes of cur in order on any host, so there is no byte order
// to mind: this file adds only the XOR, one subtle.XORBytes a side, and
// the CRC to wire's op pair. The encoder borrows plane and op buffer
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
	plane := grow(&sc.plane, (len(cur)+3)&^3) // recycled: every byte is written below
	n := subtle.XORBytes(plane, cur, base[:min(len(base), len(cur))])
	copy(plane[n:], cur[n:])
	clear(plane[len(cur):])
	ops := wire.Begin(sc.ops[:0], magicDelta, deltaCodecVersion, 4)
	ops = wire.U32s(ops, uint32(len(cur)), uint32(len(base)), crc32.ChecksumIEEE(cur))
	sc.ops = wire.AppendRLE(ops, plane)
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
	rd.RLEBound(len(rest), nw)
	if err := rd.Err(); err != nil {
		return nil, err
	}
	plane := make([]byte, 4*nw) // the one allocation: the caller keeps it as its next base
	rest, err := wire.DecodeRLE(rest, plane)
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
