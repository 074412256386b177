package lineio

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fieldline"
	"repro/internal/vec"
)

// formatFixture covers a closed line, a one-point line, an empty line
// and an open one; every coordinate is exact in float32, so the decode
// returns it unchanged.
func formatFixture() []*fieldline.Line {
	return []*fieldline.Line{
		{
			Points:    []vec.V3{vec.New(0, 0, 0), vec.New(0.5, 0.25, -1), vec.New(1, 1.5, -2)},
			Strengths: []float64{1, 0.5, 0.25},
			Closed:    true,
		},
		{Points: []vec.V3{vec.New(-3, 2, 8)}, Strengths: []float64{4}},
		{},
		{
			Points:    []vec.V3{vec.New(2, 2, 2), vec.New(2, 2, 2.5)},
			Strengths: []float64{0, 1024},
		},
	}
}

// acflRecorded is formatFixture as the streaming Write encoded it at
// the commit before the codec moved onto internal/wire: 132 bytes.
const acflRecorded = "4143464c01000000040000000300000001000000000000000000000000000080" +
	"3f0000003f0000803e000080bf0000003f0000803f0000c03f000000c0000080" +
	"3e0100000000000040c000000040000000410000804000000000000200000000" +
	"0000004000000040000000400000000000000040000000400000204000008044" +
	"acf611cc"

// TestFormatsUnchanged holds the encoder to bytes recorded from its
// predecessor and decodes them back to the fixture.
func TestFormatsUnchanged(t *testing.T) {
	want, err := hex.DecodeString(acflRecorded)
	if err != nil {
		t.Fatal(err)
	}
	lines := formatFixture()
	if got := Append(nil, lines); !bytes.Equal(got, want) {
		t.Errorf("Append changed the ACFL bytes:\n got %x\nwant %x", got, want)
	}
	if int64(len(want)) != LinesBytes(lines) {
		t.Errorf("LinesBytes = %d, the encoding is %d bytes", LinesBytes(lines), len(want))
	}
	path := filepath.Join(t.TempDir(), "recorded.acfl")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, decode := range map[string]func() ([]*fieldline.Line, error){
		"Decode":   func() ([]*fieldline.Line, error) { return Decode(want) },
		"ReadFile": func() ([]*fieldline.Line, error) { return ReadFile(path) },
	} {
		got, err := decode()
		if err != nil || len(got) != len(lines) {
			t.Fatalf("%s of the recorded bytes: err %v, %d lines", name, err, len(got))
		}
		for i, l := range lines {
			g := got[i]
			if g.Closed != l.Closed || len(g.Points) != len(l.Points) || len(g.Tangents) != len(l.Points) {
				t.Fatalf("%s: line %d shape changed: %+v", name, i, g)
			}
			for j := range l.Points {
				if g.Points[j] != l.Points[j] || g.Strengths[j] != l.Strengths[j] {
					t.Errorf("%s: line %d point %d = %v/%v, want %v/%v", name, i, j,
						g.Points[j], g.Strengths[j], l.Points[j], l.Strengths[j])
				}
			}
		}
	}
}

func FuzzDecode(f *testing.F) {
	f.Add(Append(nil, formatFixture()))
	f.Add(Append(nil, nil))
	f.Add([]byte("ACFL"))
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic and never over-allocate on hostile counts.
		_, _ = Decode(data)
	})
}
