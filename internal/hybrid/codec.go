package hybrid

import (
	"fmt"
	"io"
	"os"

	"repro/internal/vec"
	"repro/internal/wire"
)

// The .achy encoding, on disk and on the wire (little-endian), v3:
//
//	magic "ACHY" | u64 version | 6 f64 bounds | f64 threshold |
//	f64 maxLeafD | 3 i64 dims | i64 n | i64 opsLen | n × (3 f64) |
//	n × f32 | n × i64 | opsLen bytes of word-RLE ops over the
//	nx·ny·nz f32 volume | u32 crc32 (all preceding bytes)
//
// The volume goes out as wire's word-RLE op stream: about nine voxels
// in ten of a beam frame's volume are exactly zero, so the ops are an
// eighth of the raw words. The fixed-width point arrays come before
// the ops, so the XOR delta of two frames of a series (render's ACDL)
// stays aligned over the points whatever the op streams' lengths; and
// n and opsLen in the header give the exact file size, which is what
// FileComplete checks. Version 2 stored the volume as raw words before
// the count; it is refused by version.
//
// AppendBinary is its one encoder and DecodeBinary its one decoder;
// Write, ReadFile, WriteFile and FileComplete all go through them.

var magicHybrid = [4]byte{'A', 'C', 'H', 'Y'}

const (
	hybridVersion = 3
	// headerBytes is the fixed prelude readHeader consumes: magic,
	// version, bounds, thresholds, dims, point count, op stream length.
	headerBytes = 4 + 8 + 8*8 + 3*8 + 8 + 8
	pointBytes  = 24 + 4 + 8 // position, density, source index
)

// SizeBytes returns the in-memory payload: the header, the volume's
// float32 words, the point arrays and the checksum — the number behind
// the paper's "hybrid data smaller than 100MB" and frame-cache claims.
// The encoding stores the volume as RLE ops instead of words, so it is
// at most SizeBytes plus one byte per 128 voxels, and on beam frames
// about half of it.
func (r *Representation) SizeBytes() int64 {
	return headerBytes + r.Volume.SizeBytes() + int64(len(r.Points))*24 +
		int64(len(r.PointDensity))*4 + int64(len(r.OrigIndex))*8 + 4
}

// AppendBinary appends the representation's encoding to dst and returns
// the extended slice, so hot paths (the remote service's frame cache,
// the distributed-stage reply path) recycle one buffer across frames.
// It grows dst at most once, by the bound SizeBytes states.
func (r *Representation) AppendBinary(dst []byte) []byte {
	voxels := r.Volume.Len()
	dst = wire.Grow(dst, int(r.SizeBytes())+(voxels+127)/128)
	start := len(dst)
	dst = wire.Begin(dst, magicHybrid, hybridVersion, 8)
	dst = wire.V3s(dst, r.Bounds.Min, r.Bounds.Max)
	dst = wire.F64s(dst, r.Threshold, r.MaxLeafD)
	dst = wire.I64s(dst, int64(r.Volume.Nx), int64(r.Volume.Ny), int64(r.Volume.Nz), int64(len(r.Points)))
	opsLen := len(dst)
	dst = wire.I64(dst, 0) // the op stream's length, written below
	dst = wire.V3s(dst, r.Points...)
	dst = wire.F32s(dst, r.PointDensity...)
	dst = wire.I64s(dst, r.OrigIndex...)
	vol := wire.F32Bytes(r.Volume.Data)
	if !wire.NativeLE {
		vol = append([]byte(nil), vol...)
		wire.SwapWords(vol)
	}
	ops := len(dst)
	dst = wire.AppendRLE(dst, vol)
	wire.I64(dst[opsLen:opsLen], int64(len(dst)-ops)) // in place: the slot has the capacity
	return wire.Finish(dst, start)
}

// header is the fixed prelude of an encoding.
type header struct {
	bounds              vec.AABB
	threshold, maxLeafD float64
	dims                [3]int64
	n, opsLen           int64
}

// readHeader consumes the prelude. It is shared by DecodeBinary and
// FileComplete, which holds only those headerBytes.
func readHeader(rd *wire.Reader) header {
	h := header{bounds: vec.Box(rd.V3(), rd.V3()), threshold: rd.F64(), maxLeafD: rd.F64()}
	rd.I64s(h.dims[:])
	h.n, h.opsLen = rd.I64(), rd.I64()
	return h
}

// check fails rd unless the header describes a frame whose points and
// op stream fit in the avail bytes behind the header (exactly, when
// exact is set) and whose op stream can yield a grid NewGrid allocates:
// what DecodeBinary and FileComplete hold a header to before anything
// is allocated.
func (h *header) check(rd *wire.Reader, avail int64, exact bool) {
	d := h.dims
	if min(d[0], d[1], d[2]) < 1 || max(d[0], d[1], d[2]) > maxVoxels ||
		!PlausibleGrid(int(d[0]), int(d[1]), int(d[2])) {
		rd.Fail("implausible volume dims %v", d)
		return
	}
	if h.n < 0 || h.n > avail/pointBytes {
		rd.Fail("%d points do not fit the %d bytes left", h.n, avail)
	}
	if left := avail - h.n*pointBytes; h.opsLen < 0 || h.opsLen > left || exact && h.opsLen != left {
		rd.Fail("op stream of %d bytes does not fit the %d bytes behind the points", h.opsLen, left)
	}
	rd.RLEBound(int(h.opsLen), d[0]*d[1]*d[2])
}

// DecodeBinary decodes one representation from p, which must hold
// exactly the encoding, verifying the trailing checksum. The result
// copies everything out of p, so the caller may recycle the buffer
// immediately. The header is held to the bytes that carry it before
// anything is allocated: a grid only as large as its op stream can
// yield (129 words per 5 bytes) and PlausibleGrid allow, points only
// as many as the buffer holds.
func DecodeBinary(p []byte) (*Representation, error) {
	rd := wire.Open("hybrid: representation", p, magicHybrid, hybridVersion, 8, true)
	h := readHeader(&rd)
	h.check(&rd, int64(rd.Len()), false)
	if err := rd.Err(); err != nil {
		return nil, err
	}
	vol, err := NewGrid(int(h.dims[0]), int(h.dims[1]), int(h.dims[2]), h.bounds)
	if err != nil {
		return nil, err
	}
	n := int(h.n)
	r := &Representation{
		Bounds: h.bounds, Threshold: h.threshold, MaxLeafD: h.maxLeafD, Volume: vol,
		Points: make([]vec.V3, n), PointDensity: make([]float32, n), OrigIndex: make([]int64, n),
	}
	rd.V3s(r.Points)
	rd.F32s(r.PointDensity)
	rd.I64s(r.OrigIndex)
	words := wire.F32Bytes(vol.Data)
	if rest, err := wire.DecodeRLE(rd.Take(int(h.opsLen)), words); err != nil {
		rd.Fail("volume: %v", err)
	} else if len(rest) != 0 {
		rd.Fail("volume: %d bytes of ops left over", len(rest))
	}
	if err := rd.Done(); err != nil {
		return nil, err
	}
	wire.SwapWords(words)
	return r, nil
}

// Write serializes the representation to w.
func (r *Representation) Write(w io.Writer) error {
	if _, err := w.Write(r.AppendBinary(nil)); err != nil {
		return fmt.Errorf("hybrid: writing representation: %w", err)
	}
	return nil
}

// ReadFile reads a representation from the named file. A decode error
// names the file.
func ReadFile(path string) (*Representation, error) {
	p, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	rep, err := DecodeBinary(p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// FileComplete returns nil when the named file is a structurally
// complete hybrid frame — correct magic and version, a plausible header
// and a byte length exactly accounting for the points, the op stream
// and the trailing CRC it promises — and otherwise what is wrong with
// it. It costs one small read — no decode, no CRC pass — which is what
// lets a DirStore scan of thousands of frames skip the partial
// leftovers of a killed (pre-atomic-rename) writer without reading
// them.
func FileComplete(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("hybrid: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("hybrid: %w", err)
	}
	var head [headerBytes]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return fmt.Errorf("hybrid: file header: %d bytes: %w", st.Size(), err)
	}
	rd := wire.Open("hybrid: file header", head[:], magicHybrid, hybridVersion, 8, false)
	h := readHeader(&rd)
	h.check(&rd, st.Size()-headerBytes-4, true)
	return rd.Err()
}
