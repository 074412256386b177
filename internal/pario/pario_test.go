package pario

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/beam"
	"repro/internal/octree"
	"repro/internal/vec"
)

// decodeTree decodes both parts of a tree from memory the way
// ReadTreeFiles decodes its two files, and validates the result.
func decodeTree(nodes, pts []byte) (*octree.Tree, error) {
	t, err := decodeNodes(nodes)
	if err == nil {
		err = decodePoints(t, pts)
	}
	if err == nil {
		err = t.Validate()
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

func testFrame(n int, seed int64) beam.Frame {
	e := beam.NewEnsemble(n)
	e.SemiGaussianInit(seed, 1, 2, 3, [3]float64{0.1, 0.2, 0.3})
	return beam.Frame{Step: 170, S: 42.5, E: e}
}

func TestFrameRoundTrip(t *testing.T) {
	f := testFrame(1234, 1)
	enc := encodeFrame(f)
	if int64(len(enc)) != FrameBytes(1234) {
		t.Errorf("encoded size %d, FrameBytes says %d", len(enc), FrameBytes(1234))
	}
	g, err := decodeFrame(enc, nil)
	if err != nil {
		t.Fatalf("decodeFrame: %v", err)
	}
	if g.Step != f.Step || g.S != f.S || g.E.Len() != f.E.Len() {
		t.Fatalf("header mismatch: %+v vs %+v", g.Step, f.Step)
	}
	for i := 0; i < f.E.Len(); i++ {
		if g.E.X[i] != f.E.X[i] || g.E.Pz[i] != f.E.Pz[i] {
			t.Fatalf("data mismatch at %d", i)
		}
	}
}

func TestFrameDetectsCorruption(t *testing.T) {
	f := testFrame(100, 2)
	enc := encodeFrame(f)
	enc[len(enc)/2] ^= 0xFF
	if _, err := decodeFrame(enc, nil); err == nil {
		t.Error("corrupted frame read without error")
	}
}

func TestFrameDetectsTruncation(t *testing.T) {
	f := testFrame(100, 3)
	enc := encodeFrame(f)
	if _, err := decodeFrame(enc[:len(enc)-10], nil); err == nil {
		t.Error("truncated frame read without error")
	}
}

func TestFrameRejectsBadMagic(t *testing.T) {
	data := []byte("NOPE this is not a frame at all, not even close...")
	if _, err := decodeFrame(data, nil); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestFrameFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "frame_0001.acpf")
	f := testFrame(500, 4)
	if err := WriteFrameFile(path, f); err != nil {
		t.Fatalf("WriteFrameFile: %v", err)
	}
	g, err := ReadFrameFile(path)
	if err != nil {
		t.Fatalf("ReadFrameFile: %v", err)
	}
	if g.E.Len() != 500 {
		t.Errorf("read %d particles, want 500", g.E.Len())
	}
}

func buildTestTree(t *testing.T, n int, seed int64) *octree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := make([]vec.V3, n)
	for i := range pts {
		pts[i] = vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
	}
	tree, err := octree.Build(pts, octree.DefaultConfig())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tree
}

func TestTreeRoundTrip(t *testing.T) {
	tree := buildTestTree(t, 5000, 5)
	nodes, pts := encodeTree(tree)
	got, err := decodeTree(nodes, pts)
	if err != nil {
		t.Fatalf("decodeTree: %v", err)
	}
	if got.MaxLevel != tree.MaxLevel || got.LeafCap != tree.LeafCap {
		t.Errorf("config mismatch: %d/%d vs %d/%d", got.MaxLevel, got.LeafCap, tree.MaxLevel, tree.LeafCap)
	}
	if len(got.Nodes) != len(tree.Nodes) {
		t.Fatalf("node count %d, want %d", len(got.Nodes), len(tree.Nodes))
	}
	if len(got.Points) != len(tree.Points) {
		t.Fatalf("point count %d, want %d", len(got.Points), len(tree.Points))
	}
	for i := range tree.Points {
		if got.Points[i] != tree.Points[i] || got.OrigIndex[i] != tree.OrigIndex[i] {
			t.Fatalf("point %d mismatch", i)
		}
	}
	// Extraction must behave identically on the loaded tree.
	for _, th := range []float64{0.01, 1, 100} {
		if got.LeafOffsets[got.CutLeaf(th)] != tree.LeafOffsets[tree.CutLeaf(th)] {
			t.Errorf("halo count at threshold %g differs after round trip", th)
		}
	}
}

func TestTreeFileRoundTrip(t *testing.T) {
	tree := buildTestTree(t, 2000, 6)
	base := filepath.Join(t.TempDir(), "frame170_xyz")
	if err := WriteTreeFiles(base, tree); err != nil {
		t.Fatalf("WriteTreeFiles: %v", err)
	}
	got, err := ReadTreeFiles(base)
	if err != nil {
		t.Fatalf("ReadTreeFiles: %v", err)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("loaded tree invalid: %v", err)
	}
}

func TestTreeDetectsNodeCorruption(t *testing.T) {
	tree := buildTestTree(t, 1000, 7)
	nodes, pts := encodeTree(tree)
	nodes[len(nodes)/3] ^= 0x55
	if _, err := decodeTree(nodes, pts); err == nil {
		t.Error("corrupted nodes part accepted")
	}
}

func TestTreeDetectsPointCorruption(t *testing.T) {
	tree := buildTestTree(t, 1000, 8)
	nodes, pts := encodeTree(tree)
	pts[len(pts)-8] ^= 0x55 // flip a bit inside the index table
	if _, err := decodeTree(nodes, pts); err == nil {
		t.Error("corrupted points part accepted")
	}
}

func TestTreeSwappedPartsRejected(t *testing.T) {
	tree := buildTestTree(t, 500, 9)
	nodes, pts := encodeTree(tree)
	if _, err := decodeTree(pts, nodes); err == nil {
		t.Error("swapped parts accepted")
	}
}

// TestReadErrorsNameTheFile: a file that fails to decode is named in
// the error, which still wraps the decoder's own: a flipped byte in a
// frame, in either part of a tree, a pair of parts from two different
// trees, and a checksum-valid pair whose tree holds no points (which
// loaded before, and extracting from it by budget indexed leaf −1);
// the last two name both parts.
func TestReadErrorsNameTheFile(t *testing.T) {
	dir := t.TempDir()
	frame := filepath.Join(dir, "f.acpf")
	if err := WriteFrameFile(frame, testFrame(300, 1)); err != nil {
		t.Fatal(err)
	}
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	if err := WriteTreeFiles(a, buildTestTree(t, 1000, 10)); err != nil {
		t.Fatal(err)
	}
	if err := WriteTreeFiles(b, buildTestTree(t, 1000, 11)); err != nil {
		t.Fatal(err)
	}
	// put writes data, with one byte flipped halfway if flip is set.
	put := func(path string, data []byte, flip bool) {
		data = append([]byte(nil), data...)
		if flip {
			data[len(data)/2] ^= 0x40
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	read := func(path string) []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	frameBytes, aOct, aPts, bPts := read(frame), read(a+".oct"), read(a+".pts"), read(b+".pts")
	bad := filepath.Join(dir, "bad")
	for _, c := range []struct {
		name  string
		setup func()
		read  func() error
		want  string // the file the error names
	}{
		{"frame", func() { put(bad+".acpf", frameBytes, true) },
			func() error { _, err := ReadFrameFileInto(bad+".acpf", nil); return err }, bad + ".acpf: pario: frame: checksum"},
		{"nodes", func() { put(bad+".oct", aOct, true); put(bad+".pts", aPts, false) },
			func() error { _, err := ReadTreeFiles(bad); return err }, bad + ".oct: pario: nodes: checksum"},
		{"points", func() { put(bad+".oct", aOct, false); put(bad+".pts", aPts, true) },
			func() error { _, err := ReadTreeFiles(bad); return err }, bad + ".pts: pario: points: checksum"},
		{"parts of two trees", func() { put(bad+".oct", aOct, false); put(bad+".pts", bPts, false) },
			func() error { _, err := ReadTreeFiles(bad); return err }, bad + ".oct and " + bad + ".pts: pario: loaded tree invalid"},
		{"a tree with no points", func() {
			box := vec.Box(vec.New(0, 0, 0), vec.New(1, 1, 1))
			if err := WriteTreeFiles(bad, &octree.Tree{
				Bounds: box, MaxLevel: 8, LeafCap: 64,
				Nodes:       []octree.Node{{Bounds: box, FirstChild: octree.NoChild}},
				LeafOffsets: []int64{0},
			}); err != nil {
				t.Fatal(err)
			}
		}, func() error { _, err := ReadTreeFiles(bad); return err }, bad + ".oct and " + bad + ".pts: pario: loaded tree invalid: octree: tree holds no points"},
	} {
		c.setup()
		err := c.read()
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one starting %q", c.name, err, c.want)
		} else if errors.Unwrap(err) == nil {
			t.Errorf("%s: error %v wraps nothing", c.name, err)
		}
	}
}

func TestFrameBytesMatchesPaperScale(t *testing.T) {
	// §2.1: 100M particles at 6 doubles each ~= 5GB per time step.
	gb := float64(FrameBytes(100_000_000)) / (1 << 30)
	if gb < 4 || gb > 5 {
		t.Errorf("100M-particle frame = %.2f GiB, want ~4.5 (paper: 5GB)", gb)
	}
	// The billion-particle initial step: ~48GB in the paper.
	gb = float64(FrameBytes(1_000_000_000)) / (1 << 30)
	if gb < 44 || gb > 48 {
		t.Errorf("1B-particle frame = %.2f GiB, want ~44.7 (paper: 48GB)", gb)
	}
}

// Property: frames of any size and content survive the round trip
// bit-exactly.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(seed int64, n16 uint16, step uint16, s float64) bool {
		n := int(n16%500) + 1
		e := beam.NewEnsemble(n)
		e.SemiGaussianInit(seed, 1, 1, 1, [3]float64{1, 1, 1})
		in := beam.Frame{Step: int(step), S: s, E: e}
		enc := encodeFrame(in)
		out, err := decodeFrame(enc, nil)
		if err != nil {
			return false
		}
		if out.Step != in.Step || out.S != in.S || out.E.Len() != n {
			return false
		}
		for i := 0; i < n; i++ {
			for a := beam.AxisX; a <= beam.AxisPZ; a++ {
				if out.E.Coord(a)[i] != in.E.Coord(a)[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
