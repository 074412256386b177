package pario

import (
	"bytes"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/beam"
	"repro/internal/octree"
	"repro/internal/vec"
	"repro/internal/wire"
)

// frameFixture is a hand-built three-particle frame: every header field
// and every column nonzero and distinct, so a swapped or dropped field
// changes the bytes.
func frameFixture() beam.Frame {
	return beam.Frame{Step: 170, S: 42.5, E: &beam.Ensemble{
		X: []float64{1, -0.5, math.Pi}, Y: []float64{2, 0.25, -math.E}, Z: []float64{3, 1e-3, 7},
		Px: []float64{0.1, 0.2, 0.3}, Py: []float64{-4, 5, -6}, Pz: []float64{1e9, 1e-9, 0.5},
	}}
}

// treeFixture is a hand-built valid tree, depending on no Build: a root
// over [0,2]³ split once, one point in octant 0 and two in octant 1.
func treeFixture() *octree.Tree {
	root := vec.Box(vec.New(0, 0, 0), vec.New(2, 2, 2))
	t := &octree.Tree{
		Bounds: root, MaxLevel: 1, LeafCap: 2,
		Nodes:           []octree.Node{{Bounds: root, FirstChild: 1, Count: 3, Density: 0.375}},
		Points:          []vec.V3{vec.New(0.5, 0.5, 0.5), vec.New(1.5, 0.5, 0.5), vec.New(1.25, 0.75, 0.25)},
		OrigIndex:       []int64{2, 0, 1 << 40},
		LeavesByDensity: []int32{1, 2},
		LeafOffsets:     []int64{0, 1, 3},
	}
	for c := 0; c < 8; c++ {
		t.Nodes = append(t.Nodes, octree.Node{Bounds: root.Octant(c), FirstChild: octree.NoChild, Level: 1})
	}
	t.Nodes[1].Count, t.Nodes[1].Density = 1, 1
	t.Nodes[2].Offset, t.Nodes[2].Count, t.Nodes[2].Density = 1, 2, 2
	return t
}

// The fixtures as the streaming codec (bufio, a CRC-counting writer and
// reflective binary.Write) encoded them at the commit before pario moved
// onto internal/wire: 184, 928 and 120 bytes.
const (
	acpfRecorded = "414350460100000000000000aa00000000000000000000000040454003000000" +
		"00000000000000000000f03f000000000000e0bf182d4454fb21094000000000" +
		"00000040000000000000d03f6957148b0abf05c00000000000000840fca9f1d2" +
		"4d62503f0000000000001c409a9999999999b93f9a9999999999c93f33333333" +
		"3333d33f00000000000010c0000000000000144000000000000018c000000000" +
		"65cdcd4195d626e80b2e113e000000000000e03fedaa86a2"
	aconRecorded = "41434f4e01000000000000000000000000000000000000000000000000000000" +
		"0000000000000000000000400000000000000040000000000000004001000000" +
		"0000000002000000000000000900000000000000010000000000000000000000" +
		"0000000000000000000000000300000000000000000000000000d83f00000000" +
		"0000000000000000000000000000000000000000000000000000004000000000" +
		"000000400000000000000040ffffffffffffffff010000000000000000000000" +
		"000000000100000000000000000000000000f03f000000000000000000000000" +
		"000000000000000000000000000000000000f03f000000000000f03f00000000" +
		"0000f03fffffffffffffffff0100000000000000010000000000000002000000" +
		"000000000000000000000040000000000000f03f000000000000000000000000" +
		"000000000000000000000040000000000000f03f000000000000f03fffffffff" +
		"ffffffff01000000000000000000000000000000000000000000000000000000" +
		"000000000000000000000000000000000000f03f000000000000000000000000" +
		"0000f03f0000000000000040000000000000f03fffffffffffffffff01000000" +
		"0000000000000000000000000000000000000000000000000000000000000000" +
		"0000f03f000000000000f03f0000000000000000000000000000004000000000" +
		"00000040000000000000f03fffffffffffffffff010000000000000000000000" +
		"0000000000000000000000000000000000000000000000000000000000000000" +
		"00000000000000000000f03f000000000000f03f000000000000f03f00000000" +
		"00000040ffffffffffffffff0100000000000000000000000000000000000000" +
		"000000000000000000000000000000000000f03f000000000000000000000000" +
		"0000f03f0000000000000040000000000000f03f0000000000000040ffffffff" +
		"ffffffff01000000000000000000000000000000000000000000000000000000" +
		"000000000000000000000000000000000000f03f000000000000f03f00000000" +
		"0000f03f00000000000000400000000000000040ffffffffffffffff01000000" +
		"0000000000000000000000000000000000000000000000000000000000000000" +
		"0000f03f000000000000f03f000000000000f03f000000000000004000000000" +
		"0000004000000000000000400200000000000000010000000000000002000000" +
		"00000000000000000000000001000000000000000300000000000000408189c9"
	acopRecorded = "41434f5001000000000000000300000000000000000000000000e03f00000000" +
		"0000e03f000000000000e03f000000000000f83f000000000000e03f00000000" +
		"0000e03f000000000000f43f000000000000e83f000000000000d03f02000000" +
		"000000000000000000000000000000000001000037f6596e"
)

// TestFormatsUnchanged holds the three encoders to bytes recorded from
// their predecessors and decodes those bytes back to the fixtures
// through every entry point: a file written before the change reads
// after it, and the reverse.
func TestFormatsUnchanged(t *testing.T) {
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	wantFrame, wantNodes, wantPts := unhex(acpfRecorded), unhex(aconRecorded), unhex(acopRecorded)
	dir := t.TempDir()

	frame := frameFixture()
	if got := encodeFrame(frame); !bytes.Equal(got, wantFrame) {
		t.Errorf("encodeFrame changed the ACPF bytes:\n got %x\nwant %x", got, wantFrame)
	}
	if got := FrameBytes(int64(frame.E.Len())); got != int64(len(wantFrame)) {
		t.Errorf("FrameBytes(%d) = %d, the encoding is %d bytes", frame.E.Len(), got, len(wantFrame))
	}
	framePath := filepath.Join(dir, "recorded.acpf")
	if err := os.WriteFile(framePath, wantFrame, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, read := range map[string]func() (beam.Frame, error){
		"decodeFrame":   func() (beam.Frame, error) { return decodeFrame(wantFrame, nil) },
		"ReadFrameFile": func() (beam.Frame, error) { return ReadFrameFile(framePath) },
	} {
		if got, err := read(); err != nil || !reflect.DeepEqual(got, frame) {
			t.Errorf("%s of the recorded bytes: err %v, got %+v", name, err, got)
		}
	}
	written := filepath.Join(dir, "written.acpf")
	if err := WriteFrameFile(written, frame); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(written); err != nil || !bytes.Equal(got, wantFrame) {
		t.Errorf("WriteFrameFile changed the ACPF bytes (err %v)", err)
	}

	tree := treeFixture()
	if err := tree.Validate(); err != nil {
		t.Fatalf("the fixture tree is invalid: %v", err)
	}
	nodes, pts := encodeTree(tree)
	if !bytes.Equal(nodes, wantNodes) {
		t.Errorf("encodeTree changed the ACON bytes:\n got %x\nwant %x", nodes, wantNodes)
	}
	if !bytes.Equal(pts, wantPts) {
		t.Errorf("encodeTree changed the ACOP bytes:\n got %x\nwant %x", pts, wantPts)
	}
	base := filepath.Join(dir, "recorded")
	if err := os.WriteFile(base+".oct", wantNodes, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base+".pts", wantPts, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, read := range map[string]func() (*octree.Tree, error){
		"decodeTree":    func() (*octree.Tree, error) { return decodeTree(wantNodes, wantPts) },
		"ReadTreeFiles": func() (*octree.Tree, error) { return ReadTreeFiles(base) },
	} {
		if got, err := read(); err != nil || !reflect.DeepEqual(got, tree) {
			t.Errorf("%s of the recorded bytes: err %v, got %+v", name, err, got)
		}
	}
	if err := WriteTreeFiles(filepath.Join(dir, "written"), tree); err != nil {
		t.Fatal(err)
	}
	for ext, want := range map[string][]byte{".oct": wantNodes, ".pts": wantPts} {
		if got, err := os.ReadFile(filepath.Join(dir, "written") + ext); err != nil || !bytes.Equal(got, want) {
			t.Errorf("WriteTreeFiles changed the %s bytes (err %v)", ext, err)
		}
	}
}

// BenchmarkReadFrame times the ingest of a benchmark-sized frame file
// (200 000 particles, 9.6 MB, page cache): fresh through ReadFrameFile,
// and reused through ReadFrameFileInto with the ensemble a streamed
// source recycles. Run with -cpu 1,2.
func BenchmarkReadFrame(b *testing.B) {
	path := filepath.Join(b.TempDir(), "frame.acpf")
	if err := WriteFrameFile(path, testFrame(200_000, 1)); err != nil {
		b.Fatal(err)
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(FrameBytes(200_000))
		for i := 0; i < b.N; i++ {
			if _, err := ReadFrameFile(path); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		e := new(beam.Ensemble)
		b.ReportAllocs()
		b.SetBytes(FrameBytes(200_000))
		for i := 0; i < b.N; i++ {
			if _, err := ReadFrameFileInto(path, e); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// reseal returns p with its last four bytes replaced by the CRC-32 of
// the rest, as wire.Finish would write it: a fuzzer cannot forge a
// checksum, and behind the checksum is where the decoders do their work.
func reseal(p []byte) []byte {
	if len(p) < 4 {
		return p
	}
	return wire.Finish(append([]byte(nil), p[:len(p)-4]...), 0)
}

// FuzzDecodeFrame: no input, sealed or not, panics the frame decoder or
// makes it allocate beyond the input's own size.
func FuzzDecodeFrame(f *testing.F) {
	frame, _ := hex.DecodeString(acpfRecorded)
	f.Add(frame)
	f.Add(frame[:len(frame)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeFrame(data, nil)
		if got, err := decodeFrame(reseal(data), new(beam.Ensemble)); err == nil && FrameBytes(int64(got.E.Len())) != int64(len(data)) {
			t.Errorf("%d bytes decoded to %d particles", len(data), got.E.Len())
		}
	})
}

// FuzzDecodeTree fuzzes both parts at once; a tree that decodes has
// passed Validate, so walking it is safe.
func FuzzDecodeTree(f *testing.F) {
	nodes, _ := hex.DecodeString(aconRecorded)
	pts, _ := hex.DecodeString(acopRecorded)
	f.Add(nodes, pts)
	f.Add(nodes[:len(nodes)/2], pts[:len(pts)/2])
	f.Fuzz(func(t *testing.T, nodes, pts []byte) {
		_, _ = decodeTree(nodes, pts)
		if tree, err := decodeTree(reseal(nodes), reseal(pts)); err == nil {
			_ = tree.Points[:tree.LeafOffsets[tree.CutLeaf(1)]]
			tree.ThresholdForBudget(1)
		}
	})
}
