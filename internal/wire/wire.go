// Package wire is the one binary layer under every format this
// repository holds whole in memory: the blob formats (ACHY, ACFL, ACFQ,
// ACDL, ACPB, ACPT, ACPR), pario's three file formats
// (ACPF, ACON, ACOP) and the payloads of the remote protocol. Everything
// is little-endian. Only the protocol's message framing, which streams
// a CRC across vectored segments into a socket, keeps a codec of its own.
//
// The envelope. A blob is magic | version | fields | CRC-32 (IEEE) of
// all preceding bytes. The version word is 8 bytes wide in ACHY and in
// pario's files and 4 everywhere else, and the three picture codecs
// carry no checksum (message framing covers them in transit), so Begin
// and Open take the width and whether a checksum trails. Protocol
// payloads have no envelope at all: NewReader.
//
// Encoding is append-style into a caller-owned buffer, so a hot path
// recycles one buffer across frames:
//
//	start := len(dst)
//	dst = wire.Begin(dst, magic, version, 4)
//	dst = wire.U32(dst, n)
//	dst = wire.V3s(dst, pts...)
//	return wire.Finish(dst, start)
//
// Decoding is a Reader with a sticky first error. Every accessor checks
// the bytes left and returns zero once anything has failed, so a decoder
// is straight-line field reads and a single Done at the end:
//
//	rd := wire.Open("remote: extract request", p, magic, version, 4, true)
//	n := rd.Count(rd.I64(), 24)
//	pts := make([]vec.V3, n)
//	rd.V3s(pts)
//	if err := rd.Done(); err != nil { ... }
//
// Count is the allocation rule: an element count read from the input is
// refused unless that many elements are still in the buffer, so no
// header can size an allocation larger than the input that carries it.
// A decoder's own validation (image size, quality tier) goes through
// Fail, which keeps the error sticky and prefixed like the rest.
//
// Planes of 4-byte words — a density volume, a framebuffer — go out as
// the word-RLE op stream of rle.go (AppendRLE, DecodeRLE, RLEBound).
//
// Reader is a value, used through an addressable local. Returned by
// pointer it escapes to the heap — one allocation per decode, on paths
// that decode several blobs a frame.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/vec"
)

var le = binary.LittleEndian

// NativeLE reports whether the host stores a float32 in wire order.
var NativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// ---- encoding --------------------------------------------------------

// Grow returns dst with room for n more bytes, reallocating at most once.
func Grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(make([]byte, 0, len(dst)+n), dst...)
}

// Begin appends the envelope's head: the magic and the version in
// verBytes (4 or 8) bytes. The caller notes len(dst) first, for Finish.
func Begin(dst []byte, magic [4]byte, version uint64, verBytes int) []byte {
	dst = append(dst, magic[:]...)
	if verBytes == 8 {
		return U64(dst, version)
	}
	return U32(dst, uint32(version))
}

// Finish appends the CRC-32 of everything since Begin (dst[start:]).
func Finish(dst []byte, start int) []byte {
	return U32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// The scalar appends.

func U8(dst []byte, v uint8) []byte   { return append(dst, v) }
func U16(dst []byte, v uint16) []byte { return le.AppendUint16(dst, v) }
func U32(dst []byte, v uint32) []byte { return le.AppendUint32(dst, v) }
func U64(dst []byte, v uint64) []byte { return le.AppendUint64(dst, v) }
func I64(dst []byte, v int64) []byte  { return le.AppendUint64(dst, uint64(v)) }

// Bool appends one byte, 1 or 0.
func Bool(dst []byte, v bool) []byte { return Flags(dst, v) }

// Flags packs up to eight booleans into one byte, bits[i] at bit i.
func Flags(dst []byte, bits ...bool) []byte {
	var b byte
	for i, on := range bits {
		if on {
			b |= 1 << i
		}
	}
	return append(dst, b)
}

// Str8 appends s behind one length byte, cut at 255 bytes.
func Str8(dst []byte, s string) []byte {
	if len(s) > math.MaxUint8 {
		s = s[:math.MaxUint8]
	}
	return append(append(dst, byte(len(s))), s...)
}

// The bulk appends take any number of values, or a slice as v...; the
// loops are tight, so an array of 200 000 points costs what it must.

func U32s(dst []byte, v ...uint32) []byte {
	for _, u := range v {
		dst = le.AppendUint32(dst, u)
	}
	return dst
}

func U64s(dst []byte, v ...uint64) []byte {
	for _, u := range v {
		dst = le.AppendUint64(dst, u)
	}
	return dst
}

func F64s(dst []byte, v ...float64) []byte {
	for _, f := range v {
		dst = le.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

func F32s(dst []byte, v ...float32) []byte {
	for _, f := range v {
		dst = le.AppendUint32(dst, math.Float32bits(f))
	}
	return dst
}

func I64s(dst []byte, v ...int64) []byte {
	for _, i := range v {
		dst = le.AppendUint64(dst, uint64(i))
	}
	return dst
}

// V3s appends each vector as three float64s.
func V3s(dst []byte, v ...vec.V3) []byte {
	for _, p := range v {
		dst = le.AppendUint64(dst, math.Float64bits(p.X))
		dst = le.AppendUint64(dst, math.Float64bits(p.Y))
		dst = le.AppendUint64(dst, math.Float64bits(p.Z))
	}
	return dst
}

// ---- decoding --------------------------------------------------------

// Reader consumes a buffer front to back. The zero value reads nothing.
type Reader struct {
	what string // error prefix: package and object, "hybrid: representation"
	p    []byte // bytes not yet consumed
	err  error  // first failure; sticky
}

// NewReader reads a payload that has no envelope.
func NewReader(what string, p []byte) Reader { return Reader{what: what, p: p} }

// Open reads a blob in the envelope: it checks the magic and the
// version (verBytes wide) and, when sum is set, verifies and strips the
// trailing CRC-32, leaving the fields between them to the accessors.
func Open(what string, p []byte, magic [4]byte, version uint64, verBytes int, sum bool) Reader {
	r := Reader{what: what, p: p}
	var tail []byte
	if sum {
		r.p, tail = r.p[:max(len(p)-4, 0)], r.p[max(len(p)-4, 0):]
	}
	if m := r.Take(4); r.err == nil && [4]byte(m) != magic {
		r.Fail("bad magic %q", m)
	}
	v := uint64(0)
	if verBytes == 8 {
		v = r.U64()
	} else {
		v = uint64(r.U32())
	}
	if r.err == nil && v != version {
		r.Fail("unsupported version %d, want %d", v, version)
	}
	if r.err == nil && sum {
		if got, want := le.Uint32(tail), crc32.ChecksumIEEE(p[:len(p)-4]); got != want {
			r.Fail("checksum mismatch (stored %08x, computed %08x)", got, want)
		}
	}
	return r
}

// Fail records a decoder's own validation failure, unless an earlier
// error already stands.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(r.what+": "+format, args...)
		r.p = nil
	}
}

// Err returns the first failure so far.
func (r *Reader) Err() error { return r.err }

// Done returns the first failure, or an error if bytes are left over.
func (r *Reader) Done() error {
	if r.err == nil && len(r.p) != 0 {
		r.Fail("%d trailing bytes", len(r.p))
	}
	return r.err
}

// Len returns the number of bytes not yet consumed.
func (r *Reader) Len() int { return len(r.p) }

// Take consumes n bytes and returns them as a window into the input, or
// nil (and fails the reader) when fewer are left.
func (r *Reader) Take(n int) []byte {
	if n < 0 || n > len(r.p) {
		r.Fail("truncated (%d bytes wanted, %d left)", n, len(r.p))
		return nil
	}
	b := r.p[:n:n]
	r.p = r.p[n:]
	return b
}

// Count vets an element count n read from the input: it returns n when
// n elements of elemBytes each are still in the buffer, else fails the
// reader and returns 0. Allocate only what Count returned.
func (r *Reader) Count(n int64, elemBytes int) int {
	if r.err == nil && (n < 0 || elemBytes < 1 || n > int64(len(r.p)/elemBytes)) {
		r.Fail("count %d of %d-byte elements exceeds the %d bytes left", n, elemBytes, len(r.p))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *Reader) U8() uint8 {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) U16() uint16 {
	if b := r.Take(2); b != nil {
		return le.Uint16(b)
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if b := r.Take(4); b != nil {
		return le.Uint32(b)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return le.Uint64(b)
	}
	return 0
}

func (r *Reader) I64() int64   { return int64(r.U64()) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }
func (r *Reader) Bool() bool   { return r.U8() != 0 }

// V3 reads one vector, three float64s.
func (r *Reader) V3() vec.V3 { return vec.New(r.F64(), r.F64(), r.F64()) }

// Flags unpacks one byte into the given booleans, bit i into bits[i].
func (r *Reader) Flags(bits ...*bool) {
	b := r.U8()
	for i, p := range bits {
		*p = b&(1<<i) != 0
	}
}

// Str8 reads a string behind one length byte.
func (r *Reader) Str8() string { return string(r.Take(int(r.U8()))) }

// The bulk reads fill dst from one bounds-checked window; on failure
// dst is left as it was. The loops advance both slices four elements a
// step under a length test the compiler can see, so the sixteen or
// thirty-two bytes of a step are read without a bounds test each. The
// four-a-step body is what pays: V3s's one-element loop (three loads a
// step already) in the other three ran BenchmarkBulkDecode at f32 3.4
// and f64 6.9 GB/s, as the indexed loops did, against 9.5 and 18.5.

func (r *Reader) F64s(dst []float64) {
	b := r.Take(8 * len(dst))
	for ; len(dst) >= 4 && len(b) >= 32; dst, b = dst[4:], b[32:] {
		dst[0] = math.Float64frombits(le.Uint64(b))
		dst[1] = math.Float64frombits(le.Uint64(b[8:]))
		dst[2] = math.Float64frombits(le.Uint64(b[16:]))
		dst[3] = math.Float64frombits(le.Uint64(b[24:]))
	}
	for ; len(dst) > 0 && len(b) >= 8; dst, b = dst[1:], b[8:] {
		dst[0] = math.Float64frombits(le.Uint64(b))
	}
}

func (r *Reader) F32s(dst []float32) {
	b := r.Take(4 * len(dst))
	for ; len(dst) >= 4 && len(b) >= 16; dst, b = dst[4:], b[16:] {
		dst[0] = math.Float32frombits(le.Uint32(b))
		dst[1] = math.Float32frombits(le.Uint32(b[4:]))
		dst[2] = math.Float32frombits(le.Uint32(b[8:]))
		dst[3] = math.Float32frombits(le.Uint32(b[12:]))
	}
	for ; len(dst) > 0 && len(b) >= 4; dst, b = dst[1:], b[4:] {
		dst[0] = math.Float32frombits(le.Uint32(b))
	}
}

func (r *Reader) I64s(dst []int64) {
	b := r.Take(8 * len(dst))
	for ; len(dst) >= 4 && len(b) >= 32; dst, b = dst[4:], b[32:] {
		dst[0] = int64(le.Uint64(b))
		dst[1] = int64(le.Uint64(b[8:]))
		dst[2] = int64(le.Uint64(b[16:]))
		dst[3] = int64(le.Uint64(b[24:]))
	}
	for ; len(dst) > 0 && len(b) >= 8; dst, b = dst[1:], b[8:] {
		dst[0] = int64(le.Uint64(b))
	}
}

func (r *Reader) V3s(dst []vec.V3) {
	b := r.Take(24 * len(dst))
	for ; len(dst) > 0 && len(b) >= 24; dst, b = dst[1:], b[24:] {
		dst[0] = vec.New(
			math.Float64frombits(le.Uint64(b)),
			math.Float64frombits(le.Uint64(b[8:])),
			math.Float64frombits(le.Uint64(b[16:])))
	}
}
