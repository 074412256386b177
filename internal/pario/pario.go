// Package pario implements the binary on-disk formats of the pipeline:
// raw particle frames (the simulation output), and the two-part
// partitioned representation of §2.3 — one part holding all particles
// of the simulation grouped by octree node and sorted by increasing
// node density, the other holding the octree nodes with their offsets
// and counts into the particle part.
//
// All files are little-endian with a magic number, a format version,
// and a trailing CRC-32 so corrupt or truncated transfers (the paper's
// data moves across wide-area networks) are detected on load. The three
// formats (ACPF, ACON, ACOP) sit on internal/wire like every other: a
// file is read whole, checksummed in one call and decoded in bulk, and
// every count in a header is held to the bytes actually present, so no
// header can size an allocation larger than its file.
//
// Ownership. ReadFrame, ReadFrameFile, ReadTree and ReadTreeFiles return
// freshly allocated objects the caller owns. ReadFrameFileInto is the
// same decoder for a caller that reads frame after frame: it fills an
// ensemble the caller lends and does not touch it after it returns. The
// file's own bytes never leave the package (see fileBufs).
package pario

import (
	"fmt"
	"io"
	"os"

	"repro/internal/beam"
	"repro/internal/octree"
	"repro/internal/pipeline"
	"repro/internal/vec"
	"repro/internal/wire"
)

// Format magics. Four bytes each, versioned separately.
var (
	magicFrame = [4]byte{'A', 'C', 'P', 'F'} // accelerator particle frame
	magicNodes = [4]byte{'A', 'C', 'O', 'N'} // octree nodes part
	magicPts   = [4]byte{'A', 'C', 'O', 'P'} // octree particle part
)

// formatVersion follows the magic in 8 bytes.
const formatVersion = 1

// nodeBytes is one encoded octree.Node: first child, level, offset,
// count, density and the six bounds.
const nodeBytes = 5*8 + 6*8

// encodeFrame encodes a simulation frame: all six phase-space
// coordinates in double precision, exactly the storage model of the
// paper's data (48 bytes per particle; "100 million particles requires
// 5GB of storage per time step" — 5GB/100M ≈ 50 B/particle with
// headers).
func encodeFrame(f beam.Frame) []byte {
	dst := make([]byte, 0, FrameBytes(int64(f.E.Len())))
	dst = wire.Begin(dst, magicFrame, formatVersion, 8)
	dst = wire.U64(dst, uint64(f.Step))
	dst = wire.F64s(dst, f.S)
	dst = wire.I64(dst, int64(f.E.Len()))
	for _, col := range [][]float64{f.E.X, f.E.Y, f.E.Z, f.E.Px, f.E.Py, f.E.Pz} {
		dst = wire.F64s(dst, col...)
	}
	return wire.Finish(dst, 0)
}

// decodeFrame decodes a frame into e (resized to the frame's count), or
// into a fresh ensemble when e is nil.
func decodeFrame(p []byte, e *beam.Ensemble) (beam.Frame, error) {
	rd := wire.Open("pario: frame", p, magicFrame, formatVersion, 8, true)
	f := beam.Frame{Step: int(rd.U64()), S: rd.F64(), E: e}
	n := rd.Count(rd.I64(), 6*8)
	if f.E == nil {
		f.E = new(beam.Ensemble)
	}
	f.E.Resize(n)
	for _, col := range [][]float64{f.E.X, f.E.Y, f.E.Z, f.E.Px, f.E.Py, f.E.Pz} {
		rd.F64s(col)
	}
	if err := rd.Done(); err != nil {
		return beam.Frame{}, err
	}
	return f, nil
}

// WriteFrameFile writes a frame to the named file.
func WriteFrameFile(path string, f beam.Frame) error {
	return writeFile(path, encodeFrame(f))
}

// ReadFrameFile reads a frame from the named file.
func ReadFrameFile(path string) (beam.Frame, error) {
	return ReadFrameFileInto(path, nil)
}

// ReadFrameFileInto is ReadFrameFile into the caller's storage: the
// columns land in e, resized to the frame's count (nil means a fresh
// ensemble). On error e's contents are unspecified.
func ReadFrameFileInto(path string, e *beam.Ensemble) (f beam.Frame, err error) {
	err = decodeFile(path, func(p []byte) (err error) {
		f, err = decodeFrame(p, e)
		return err
	})
	return f, err
}

// decodeFile reads the named file and decodes it. A decode error is
// wrapped with the path, so that a run of many frames says which one
// is bad; an open or read error carries the path already.
func decodeFile(path string, decode func(p []byte) error) error {
	p, err := readFile(path)
	if err != nil {
		return err
	}
	defer releaseFile(p)
	if err := decode(p); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// fileBufs lends the file readers their read buffer: a decoder copies
// what it keeps, so a file's bytes are scratch, and the list (bounded,
// not emptied by the collector) keeps the buffer for the next file
// unless it outgrew pipeline.MaxKeptBytes.
var fileBufs = pipeline.NewFreeList(func() []byte { return nil })

// readFile is os.ReadFile into a buffer of fileBufs: sized from Stat
// with one byte to spare, so the read that finds EOF needs no growth.
// The caller hands the result to releaseFile when it has decoded it.
func readFile(path string) ([]byte, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pario: %w", err)
	}
	defer file.Close()
	p := fileBufs.Get()
	if st, err := file.Stat(); err == nil && int64(cap(p)) <= st.Size() {
		p = make([]byte, 0, st.Size()+1)
	}
	for {
		n, err := file.Read(p[len(p):cap(p)])
		p = p[:len(p)+n]
		if err == io.EOF {
			return p, nil
		}
		if err != nil {
			releaseFile(p)
			return nil, fmt.Errorf("pario: %w", err)
		}
		if len(p) == cap(p) {
			p = append(p, 0)[:len(p)]
		}
	}
}

func releaseFile(p []byte) { pipeline.PutSlice(fileBufs, p) }

// FrameBytes returns the exact encoded size of a frame with n
// particles, used by the storage-accounting experiments (claim C3).
func FrameBytes(n int64) int64 {
	return 4 + 8 + 8 + 8 + 8 + 6*8*n + 4
}

// encodeTree encodes the partitioned representation as the paper's two
// parts: nodes (the octree nodes, with offsets and counts into the
// particle part) and pts (the density-ordered particle groups plus
// their original indices).
func encodeTree(t *octree.Tree) (nodes, pts []byte) {
	nodes = make([]byte, 0, 4+8+6*8+3*8+nodeBytes*len(t.Nodes)+8+8*len(t.LeavesByDensity)+8*len(t.LeafOffsets)+4)
	nodes = wire.Begin(nodes, magicNodes, formatVersion, 8)
	nodes = wire.V3s(nodes, t.Bounds.Min, t.Bounds.Max)
	nodes = wire.I64s(nodes, int64(t.MaxLevel), int64(t.LeafCap), int64(len(t.Nodes)))
	for i := range t.Nodes {
		n := &t.Nodes[i]
		nodes = wire.I64(nodes, int64(n.FirstChild))
		nodes = wire.U64(nodes, uint64(n.Level))
		nodes = wire.I64s(nodes, n.Offset, n.Count)
		nodes = wire.F64s(nodes, n.Density)
		nodes = wire.V3s(nodes, n.Bounds.Min, n.Bounds.Max)
	}
	nodes = wire.I64(nodes, int64(len(t.LeavesByDensity)))
	for _, li := range t.LeavesByDensity {
		nodes = wire.I64(nodes, int64(li))
	}
	nodes = wire.I64s(nodes, t.LeafOffsets...)
	nodes = wire.Finish(nodes, 0)

	pts = make([]byte, 0, 4+8+8+(24+8)*len(t.Points)+4)
	pts = wire.Begin(pts, magicPts, formatVersion, 8)
	pts = wire.I64(pts, int64(len(t.Points)))
	pts = wire.V3s(pts, t.Points...)
	pts = wire.I64s(pts, t.OrigIndex...)
	return nodes, wire.Finish(pts, 0)
}

// decodeNodes decodes the nodes part into a tree without points.
func decodeNodes(nodes []byte) (*octree.Tree, error) {
	rd := wire.Open("pario: nodes", nodes, magicNodes, formatVersion, 8, true)
	t := &octree.Tree{Bounds: vec.Box(rd.V3(), rd.V3())}
	t.MaxLevel, t.LeafCap = int(rd.I64()), int(rd.I64())
	t.Nodes = make([]octree.Node, rd.Count(rd.I64(), nodeBytes))
	for i := range t.Nodes {
		n := &t.Nodes[i]
		n.FirstChild, n.Level = int32(rd.I64()), uint8(rd.U64())
		n.Offset, n.Count, n.Density = rd.I64(), rd.I64(), rd.F64()
		n.Bounds = vec.Box(rd.V3(), rd.V3())
	}
	nLeaves := rd.Count(rd.I64(), 8)
	if nLeaves > len(t.Nodes) {
		rd.Fail("implausible leaf count %d for %d nodes", nLeaves, len(t.Nodes))
		nLeaves = 0
	}
	t.LeavesByDensity = make([]int32, nLeaves)
	for i := range t.LeavesByDensity {
		t.LeavesByDensity[i] = int32(rd.I64())
	}
	t.LeafOffsets = make([]int64, nLeaves+1)
	rd.I64s(t.LeafOffsets)
	if err := rd.Done(); err != nil {
		return nil, err
	}
	return t, nil
}

// decodePoints decodes the points part into t.
func decodePoints(t *octree.Tree, pts []byte) error {
	rd := wire.Open("pario: points", pts, magicPts, formatVersion, 8, true)
	nPts := rd.Count(rd.I64(), 24+8)
	t.Points, t.OrigIndex = make([]vec.V3, nPts), make([]int64, nPts)
	rd.V3s(t.Points)
	rd.I64s(t.OrigIndex)
	return rd.Done()
}

// WriteTreeFiles writes base+".oct" and base+".pts" — the paper's
// two-part layout on disk.
func WriteTreeFiles(base string, t *octree.Tree) error {
	nodes, pts := encodeTree(t)
	if err := writeFile(base+".oct", nodes); err != nil {
		return err
	}
	return writeFile(base+".pts", pts)
}

// ReadTreeFiles reads the pair written by WriteTreeFiles. A decode
// error names the file it is in; a tree whose parts do not agree names
// both.
func ReadTreeFiles(base string) (*octree.Tree, error) {
	oct, pts := base+".oct", base+".pts"
	var t *octree.Tree
	err := decodeFile(oct, func(p []byte) (err error) {
		t, err = decodeNodes(p)
		return err
	})
	if err == nil {
		err = decodeFile(pts, func(p []byte) error { return decodePoints(t, p) })
	}
	if err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("%s and %s: pario: loaded tree invalid: %w", oct, pts, err)
	}
	return t, nil
}

// writeFile creates or truncates the named file and writes p to it.
func writeFile(path string, p []byte) error {
	if err := os.WriteFile(path, p, 0o666); err != nil {
		return fmt.Errorf("pario: %w", err)
	}
	return nil
}
