package hybrid

import (
	"bytes"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/vec"
)

// formatFixture is a hand-built representation touching every field of
// the .achy encoding; it depends on no other package's output.
func formatFixture() *Representation {
	b := vec.Box(vec.New(-1, -2, -3), vec.New(4, 5, 6))
	g, err := NewGrid(2, 3, 4, b)
	if err != nil {
		panic(err)
	}
	for i := range g.Data {
		g.Data[i] = float32(i) * 0.125
	}
	return &Representation{
		Bounds: b, Threshold: 0.375, MaxLeafD: 12.5, Volume: g,
		Points:       []vec.V3{vec.New(1, 2, 3), vec.New(-0.5, 0.25, 1e-3), vec.New(math.Pi, -math.E, 0)},
		PointDensity: []float32{0.1, 0.5, 1},
		OrigIndex:    []int64{7, 0, 1 << 40},
	}
}

// achyRecorded is formatFixture as Write and AppendBinary (the two
// agreed) encoded it at the commit before the codec moved onto
// internal/wire: 316 bytes.
const achyRecorded = "414348590200000000000000000000000000f0bf00000000000000c000000000" +
	"000008c000000000000010400000000000001440000000000000184000000000" +
	"0000d83f00000000000029400200000000000000030000000000000004000000" +
	"00000000000000000000003e0000803e0000c03e0000003f0000203f0000403f" +
	"0000603f0000803f0000903f0000a03f0000b03f0000c03f0000d03f0000e03f" +
	"0000f03f00000040000008400000104000001840000020400000284000003040" +
	"000038400300000000000000000000000000f03f000000000000004000000000" +
	"00000840000000000000e0bf000000000000d03ffca9f1d24d62503f182d4454" +
	"fb2109406957148b0abf05c00000000000000000cdcccc3d0000003f0000803f" +
	"07000000000000000000000000000000000000000001000084a22a07"

// TestFormatsUnchanged holds the encoder to bytes recorded from its
// predecessor and decodes them back to the fixture, through every entry
// point: a file or a reply written before the change reads after it,
// and the reverse.
func TestFormatsUnchanged(t *testing.T) {
	want, err := hex.DecodeString(achyRecorded)
	if err != nil {
		t.Fatal(err)
	}
	rep := formatFixture()
	got := rep.AppendBinary(nil)
	if !bytes.Equal(got, want) {
		t.Errorf("AppendBinary changed the ACHY bytes:\n got %x\nwant %x", got, want)
	}
	if int64(len(got)) != rep.SizeBytes() || cap(got) != len(got) {
		t.Errorf("encoded %d bytes into a buffer of %d; SizeBytes says %d", len(got), cap(got), rep.SizeBytes())
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil || !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Write changed the ACHY bytes (err %v)", err)
	}
	path := filepath.Join(t.TempDir(), "recorded.achy")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, decode := range map[string]func() (*Representation, error){
		"DecodeBinary": func() (*Representation, error) { return DecodeBinary(want) },
		"ReadFile":     func() (*Representation, error) { return ReadFile(path) },
	} {
		if got, err := decode(); err != nil || !reflect.DeepEqual(got, rep) {
			t.Errorf("%s of the recorded bytes: err %v, got %+v", name, err, got)
		}
	}
}

// TestFileComplete: the two-read structural check accepts exactly the
// complete file — every truncation, a grown file and a damaged header
// are refused, as DecodeBinary would refuse them.
func TestFileComplete(t *testing.T) {
	good := formatFixture().AppendBinary(nil)
	path := filepath.Join(t.TempDir(), "frame.achy")
	check := func(name string, data []byte, want bool) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got := FileComplete(path); got != want {
			t.Errorf("%s: FileComplete = %v, want %v", name, got, want)
		}
	}
	check("complete", good, true)
	for n := 0; n < len(good); n++ {
		check("truncated", good[:n], false)
	}
	check("grown", append(append([]byte(nil), good...), 0), false)
	for name, at := range map[string]int{"magic": 0, "version": 4, "dims": 76 + 7, "count": len(good) - 4 - 3*36 - 1} {
		bad := append([]byte(nil), good...)
		bad[at] ^= 0x80
		check("flipped "+name, bad, false)
	}
	if FileComplete(filepath.Join(t.TempDir(), "missing.achy")) {
		t.Error("a missing file is complete")
	}
}
