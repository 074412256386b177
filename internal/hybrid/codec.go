package hybrid

import (
	"fmt"
	"io"
	"os"

	"repro/internal/vec"
	"repro/internal/wire"
)

// The .achy encoding, on disk and on the wire (little-endian):
//
//	magic "ACHY" | u64 version | 6 f64 bounds | f64 threshold |
//	f64 maxLeafD | 3 i64 dims | nx·ny·nz f32 | i64 n | n × (3 f64) |
//	n × f32 | n × i64 | u32 crc32 (all preceding bytes)
//
// AppendBinary is its one encoder and DecodeBinary its one decoder;
// Write, Read, WriteFile, ReadFile and FileComplete all go through them.

var magicHybrid = [4]byte{'A', 'C', 'H', 'Y'}

const (
	hybridVersion = 2
	// headerBytes is the fixed prelude readHeader consumes: magic,
	// version, bounds, thresholds, dims.
	headerBytes = 4 + 8 + 8*8 + 3*8
	pointBytes  = 24 + 4 + 8 // position, density, source index
)

// SizeBytes returns the serialized payload size: the number behind the
// paper's "hybrid data smaller than 100MB" and frame-cache claims.
func (r *Representation) SizeBytes() int64 {
	return headerBytes + r.Volume.SizeBytes() + 8 + int64(len(r.Points))*24 +
		int64(len(r.PointDensity))*4 + int64(len(r.OrigIndex))*8 + 4
}

// AppendBinary appends the representation's encoding to dst and returns
// the extended slice, so hot paths (the remote service's frame cache,
// the distributed-stage reply path) recycle one buffer across frames.
func (r *Representation) AppendBinary(dst []byte) []byte {
	dst = wire.Grow(dst, int(r.SizeBytes()))
	start := len(dst)
	dst = wire.Begin(dst, magicHybrid, hybridVersion, 8)
	dst = wire.V3s(dst, r.Bounds.Min, r.Bounds.Max)
	dst = wire.F64s(dst, r.Threshold, r.MaxLeafD)
	dst = wire.I64s(dst, int64(r.Volume.Nx), int64(r.Volume.Ny), int64(r.Volume.Nz))
	dst = wire.F32s(dst, r.Volume.Data...)
	dst = wire.I64(dst, int64(len(r.Points)))
	dst = wire.V3s(dst, r.Points...)
	dst = wire.F32s(dst, r.PointDensity...)
	dst = wire.I64s(dst, r.OrigIndex...)
	return wire.Finish(dst, start)
}

// header is the fixed prelude of an encoding.
type header struct {
	bounds              vec.AABB
	threshold, maxLeafD float64
	dims                [3]int64
}

// readHeader consumes the prelude. It is shared by DecodeBinary and
// FileComplete, which holds only those headerBytes.
func readHeader(rd *wire.Reader) header {
	h := header{bounds: vec.Box(rd.V3(), rd.V3()), threshold: rd.F64(), maxLeafD: rd.F64()}
	rd.I64s(h.dims[:])
	return h
}

// voxels returns the grid's voxel count, or false when a dim is not
// positive or the float32 volume would not fit in avail bytes — checked
// by division, so hostile dims cannot overflow the product.
func (h *header) voxels(avail int64) (int64, bool) {
	fit := avail / 4
	for _, d := range h.dims {
		if d < 1 {
			return 0, false
		}
		fit /= d
	}
	return h.dims[0] * h.dims[1] * h.dims[2], fit >= 1
}

// DecodeBinary decodes one representation from p, which must hold
// exactly the encoding, verifying the trailing checksum. The result
// copies everything out of p, so the caller may recycle the buffer
// immediately.
func DecodeBinary(p []byte) (*Representation, error) {
	rd := wire.Open("hybrid: representation", p, magicHybrid, hybridVersion, 8, true)
	h := readHeader(&rd)
	// The volume must be in the buffer before the grid is allocated.
	if _, ok := h.voxels(int64(rd.Len())); !ok {
		rd.Fail("volume dims %v do not fit the %d bytes left", h.dims, rd.Len())
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	vol, err := NewGrid(int(h.dims[0]), int(h.dims[1]), int(h.dims[2]), h.bounds)
	if err != nil {
		return nil, err
	}
	rd.F32s(vol.Data)
	n := rd.Count(rd.I64(), pointBytes)
	r := &Representation{
		Bounds: h.bounds, Threshold: h.threshold, MaxLeafD: h.maxLeafD, Volume: vol,
		Points: make([]vec.V3, n), PointDensity: make([]float32, n), OrigIndex: make([]int64, n),
	}
	rd.V3s(r.Points)
	rd.F32s(r.PointDensity)
	rd.I64s(r.OrigIndex)
	if err := rd.Done(); err != nil {
		return nil, err
	}
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

// FileComplete reports whether the named file is a structurally
// complete hybrid frame: correct magic and version, and a byte length
// exactly accounting for the volume, point arrays and trailing CRC its
// header promises. It costs two small reads — no decode, no CRC pass —
// which is what lets a DirStore scan of thousands of frames skip the
// partial leftovers of a killed (pre-atomic-rename) writer without
// reading them.
func FileComplete(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return false
	}
	var head [headerBytes]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return false
	}
	rd := wire.Open("hybrid: file header", head[:], magicHybrid, hybridVersion, 8, false)
	h := readHeader(&rd)
	points := st.Size() - headerBytes - 8 - 4 // what the count and the CRC leave
	voxels, ok := h.voxels(points)
	if rd.Err() != nil || !ok {
		return false
	}
	var cnt [8]byte
	if _, err := f.ReadAt(cnt[:], headerBytes+4*voxels); err != nil {
		return false
	}
	rd = wire.NewReader("hybrid: point count", cnt[:])
	n := rd.I64()
	return n >= 0 && n <= points/pointBytes && 4*voxels+n*pointBytes == points
}
