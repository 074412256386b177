// Package lineio stores pre-integrated field lines compactly — the
// strategy that makes the paper's time-varying field visualization
// feasible at all: "Storing the precomputed field lines rather than
// the raw data can significantly cut down the data storage and
// transfer requirements ... The typical saving is about a factor of
// 25, which would allow many time steps of electromagnetic field lines
// to reside in memory for interactive viewing." For the 12-cell
// structure, storing raw fields would need ~26 TB (§3.4); storing
// lines makes the data set tractable.
//
// Lines are stored in single precision (positions, tangents are
// recomputed on load from point differences, strengths kept) with a
// per-file CRC-32.
package lineio

import (
	"fmt"
	"os"

	"repro/internal/fieldline"
	"repro/internal/vec"
	"repro/internal/wire"
)

// The .acfl encoding (little-endian):
//
//	magic "ACFL" | u32 version | u32 count |
//	count × (u32 npts | u8 closed | npts × (4 f32: point, strength)) |
//	u32 crc32 (all preceding bytes)

var magic = [4]byte{'A', 'C', 'F', 'L'}

const version = 1

// Append appends the lines' encoding to dst — the format's one encoder.
func Append(dst []byte, lines []*fieldline.Line) []byte {
	dst = wire.Grow(dst, int(LinesBytes(lines)))
	start := len(dst)
	dst = wire.Begin(dst, magic, version, 4)
	dst = wire.U32(dst, uint32(len(lines)))
	for _, l := range lines {
		dst = wire.U32(dst, uint32(l.NumPoints()))
		dst = wire.Bool(dst, l.Closed)
		for i, p := range l.Points {
			dst = wire.F32s(dst, float32(p.X), float32(p.Y), float32(p.Z), float32(l.Strengths[i]))
		}
	}
	return wire.Finish(dst, start)
}

// Decode decodes lines from p, which must hold exactly one encoding —
// the format's one decoder. It verifies the checksum and recomputes
// unit tangents from central differences of the stored points.
func Decode(p []byte) ([]*fieldline.Line, error) {
	rd := wire.Open("lineio: line set", p, magic, version, 4, true)
	lines := make([]*fieldline.Line, rd.Count(int64(rd.U32()), 5))
	for i := 0; i < len(lines) && rd.Err() == nil; i++ {
		n := rd.Count(int64(rd.U32()), 16)
		l := &fieldline.Line{
			Closed:    rd.Bool(),
			Points:    make([]vec.V3, n),
			Strengths: make([]float64, n),
		}
		for j := range l.Points {
			var rec [4]float32
			rd.F32s(rec[:])
			l.Points[j] = vec.New(float64(rec[0]), float64(rec[1]), float64(rec[2]))
			l.Strengths[j] = float64(rec[3])
		}
		recomputeTangents(l)
		lines[i] = l
	}
	if err := rd.Done(); err != nil {
		return nil, err
	}
	return lines, nil
}

// WriteFile / ReadFile are the file-path conveniences.
func WriteFile(path string, lines []*fieldline.Line) error {
	if err := os.WriteFile(path, Append(nil, lines), 0o666); err != nil {
		return fmt.Errorf("lineio: %w", err)
	}
	return nil
}

// ReadFile reads a line file written by WriteFile.
func ReadFile(path string) ([]*fieldline.Line, error) {
	p, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("lineio: %w", err)
	}
	return Decode(p)
}

// LinesBytes returns the exact encoded size of the given lines.
func LinesBytes(lines []*fieldline.Line) int64 {
	total := int64(4 + 4 + 4 + 4) // magic, version, count, crc
	for _, l := range lines {
		total += 4 + 1 + int64(l.NumPoints())*16
	}
	return total
}

// SavingFactor returns rawFieldBytes / lineBytes — the paper's
// "typical saving is about a factor of 25" metric.
func SavingFactor(rawFieldBytes, lineBytes int64) float64 {
	if lineBytes == 0 {
		return 0
	}
	return float64(rawFieldBytes) / float64(lineBytes)
}

// recomputeTangents rebuilds unit tangents from central differences of
// the stored points — tangents are derivable data, so the file format
// does not store them (part of the compactness).
func recomputeTangents(l *fieldline.Line) {
	n := len(l.Points)
	l.Tangents = make([]vec.V3, n)
	for i := 0; i < n; i++ {
		var d vec.V3
		switch {
		case n == 1:
			d = vec.New(1, 0, 0)
		case i == 0:
			d = l.Points[1].Sub(l.Points[0])
		case i == n-1:
			d = l.Points[n-1].Sub(l.Points[n-2])
		default:
			d = l.Points[i+1].Sub(l.Points[i-1])
		}
		l.Tangents[i] = d.Norm()
	}
}
