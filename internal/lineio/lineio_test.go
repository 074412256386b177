package lineio

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fieldline"
	"repro/internal/vec"
)

func makeLines(n, pts int) []*fieldline.Line {
	lines := make([]*fieldline.Line, n)
	for i := range lines {
		l := &fieldline.Line{Closed: i%3 == 0}
		for j := 0; j < pts; j++ {
			t := float64(j) * 0.1
			l.Points = append(l.Points, vec.New(math.Cos(t+float64(i)), math.Sin(t), t))
			l.Tangents = append(l.Tangents, vec.New(-math.Sin(t), math.Cos(t), 1).Norm())
			l.Strengths = append(l.Strengths, 1+math.Sin(t))
		}
		lines[i] = l
	}
	return lines
}

func TestRoundTrip(t *testing.T) {
	lines := makeLines(10, 50)
	enc := Append(nil, lines)
	if int64(len(enc)) != LinesBytes(lines) {
		t.Errorf("encoded %d bytes, LinesBytes says %d", len(enc), LinesBytes(lines))
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got) != len(lines) {
		t.Fatalf("read %d lines, want %d", len(got), len(lines))
	}
	for i, l := range got {
		if l.Closed != lines[i].Closed {
			t.Errorf("line %d closed flag lost", i)
		}
		if l.NumPoints() != lines[i].NumPoints() {
			t.Fatalf("line %d has %d points, want %d", i, l.NumPoints(), lines[i].NumPoints())
		}
		for j := range l.Points {
			// Single-precision round trip.
			if l.Points[j].Dist(lines[i].Points[j]) > 1e-6 {
				t.Fatalf("line %d point %d drifted: %v vs %v", i, j, l.Points[j], lines[i].Points[j])
			}
			if math.Abs(l.Strengths[j]-lines[i].Strengths[j]) > 1e-6 {
				t.Fatalf("line %d strength %d drifted", i, j)
			}
		}
	}
}

func TestTangentsRecomputed(t *testing.T) {
	lines := makeLines(1, 100)
	enc := Append(nil, lines)
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	l := got[0]
	if len(l.Tangents) != l.NumPoints() {
		t.Fatalf("tangent count %d != point count %d", len(l.Tangents), l.NumPoints())
	}
	for i, tg := range l.Tangents {
		if math.Abs(tg.Len()-1) > 1e-9 {
			t.Fatalf("tangent %d not unit: %v", i, tg)
		}
		// Central-difference tangents approximate the analytic ones.
		if tg.Dot(lines[0].Tangents[i]) < 0.95 {
			t.Fatalf("tangent %d deviates from analytic: %v vs %v", i, tg, lines[0].Tangents[i])
		}
	}
}

func TestDetectsCorruption(t *testing.T) {
	lines := makeLines(5, 30)
	enc := Append(nil, lines)
	enc[len(enc)/2] ^= 0x3C
	if _, err := Decode(enc); err == nil {
		t.Error("corrupted file accepted")
	}
}

func TestRejectsBadMagic(t *testing.T) {
	if _, err := Decode([]byte("garbage data here...")); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestEmptySet(t *testing.T) {
	enc := Append(nil, nil)
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty set read back %d lines", len(got))
	}
}

// C6: the storage saving of pre-integrated lines vs raw field data.
// At the paper's 12-cell scale (1.6M elements, ~80MB/step), a typical
// interactive line budget (500 lines x 300 points) stores in ~2.4MB —
// a factor ~32, consistent with the paper's "typical saving is about a
// factor of 25".
func TestLineStorageSaving(t *testing.T) {
	lines := makeLines(500, 300)
	lineBytes := LinesBytes(lines)
	rawBytes := int64(1_600_000) * 48
	factor := SavingFactor(rawBytes, lineBytes)
	if factor < 20 || factor > 45 {
		t.Errorf("saving factor %.1f, want in [20, 45] (paper: ~25)", factor)
	}
}

func TestSavingFactorZeroDenominator(t *testing.T) {
	if SavingFactor(100, 0) != 0 {
		t.Error("zero line bytes should yield 0")
	}
}

func TestFileRoundTrip(t *testing.T) {
	lines := makeLines(3, 20)
	path := t.TempDir() + "/lines.acfl"
	if err := WriteFile(path, lines); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("read %d lines", len(got))
	}
}

// Property: arbitrary line sets survive the round trip within
// single-precision tolerance, preserving counts and closure flags.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, nLines, nPts uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nLines%8) + 1
		pts := int(nPts%40) + 2
		in := make([]*fieldline.Line, n)
		for i := range in {
			l := &fieldline.Line{Closed: rng.Intn(2) == 0}
			for j := 0; j < pts; j++ {
				l.Points = append(l.Points, vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()))
				l.Tangents = append(l.Tangents, vec.New(1, 0, 0))
				l.Strengths = append(l.Strengths, rng.Float64())
			}
			in[i] = l
		}
		enc := Append(nil, in)
		out, err := Decode(enc)
		if err != nil || len(out) != n {
			return false
		}
		for i := range out {
			if out[i].Closed != in[i].Closed || out[i].NumPoints() != pts {
				return false
			}
			for j := range out[i].Points {
				if out[i].Points[j].Dist(in[i].Points[j]) > 1e-5 {
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
