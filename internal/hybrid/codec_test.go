package hybrid

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/octree"
	"repro/internal/vec"
)

func codecFixture(t testing.TB) *Representation {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	pts := make([]vec.V3, 4000)
	for i := range pts {
		pts[i] = vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
	}
	tree, err := octree.Build(pts, octree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Extract(tree, ExtractConfig{VolumeRes: 8, Budget: 800})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestAppendBinaryMatchesWrite: the append-style encoder must produce
// byte-for-byte the stream Write produces — the wire and file formats
// are one format.
func TestAppendBinaryMatchesWrite(t *testing.T) {
	rep := codecFixture(t)
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	enc := rep.AppendBinary(nil)
	if !bytes.Equal(enc, buf.Bytes()) {
		t.Fatalf("AppendBinary (%d bytes) differs from Write (%d bytes)", len(enc), buf.Len())
	}
	if n := testing.AllocsPerRun(10, func() { rep.AppendBinary(nil) }); n != 1 {
		t.Errorf("AppendBinary allocated %v times, want 1", n)
	}
	if back, err := DecodeBinary(enc); err != nil || !reflect.DeepEqual(back, rep) {
		t.Errorf("the encoding does not decode back to the representation: %v", err)
	}

	// Appending after a prefix leaves the prefix alone and the encoding
	// intact.
	prefixed := rep.AppendBinary([]byte("prefix"))
	if !bytes.Equal(prefixed[:6], []byte("prefix")) || !bytes.Equal(prefixed[6:], enc) {
		t.Error("AppendBinary with a non-empty dst mangled the stream")
	}
}

// TestDecodeBinaryRoundTrip: DecodeBinary inverts AppendBinary and
// copies everything out of the input buffer.
func TestDecodeBinaryRoundTrip(t *testing.T) {
	rep := codecFixture(t)
	enc := rep.AppendBinary(nil)
	back, err := DecodeBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.AppendBinary(nil), enc) {
		t.Fatal("decoded representation re-encodes differently")
	}
	// Clobber the buffer: the decoded representation must be unaffected
	// (the remote compute path recycles reply buffers immediately).
	for i := range enc {
		enc[i] = 0xAA
	}
	if !bytes.Equal(back.AppendBinary(nil), rep.AppendBinary(nil)) {
		t.Fatal("decoded representation aliases the input buffer")
	}
}

// TestDecodeBinaryMalformed: every corruption class errors cleanly —
// no panic, no giant allocation.
func TestDecodeBinaryMalformed(t *testing.T) {
	rep := codecFixture(t)
	good := rep.AppendBinary(nil)

	flip := func(i int) []byte {
		out := append([]byte(nil), good...)
		out[i] ^= 0xff
		return out
	}
	// resign re-computes the trailing checksum, so the header checks
	// behind it are what refuses the blob.
	resign := func(b []byte) []byte {
		return binary.LittleEndian.AppendUint32(b[:len(b)-4], crc32.ChecksumIEEE(b[:len(b)-4]))
	}
	put := func(at int, v uint64) []byte {
		out := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(out[at:], v)
		return resign(out)
	}
	const dims, count, opsLen = 76, 100, 108 // header offsets at version 3
	cases := map[string][]byte{
		"empty":            {},
		"truncated magic":  good[:3],
		"bad magic":        flip(0),
		"bad version":      flip(4),
		"truncated body":   good[:len(good)/2],
		"extra bytes":      append(append([]byte(nil), good...), 0),
		"flipped point":    flip(headerBytes + 5),
		"flipped ops":      flip(len(good) - 10),
		"flipped crc":      flip(len(good) - 1),
		"hostile dims":     put(dims, math.MaxUint64),
		"dims past ops":    put(dims, 1<<12),
		"count past end":   put(count, 1<<40),
		"ops past end":     put(opsLen, uint64(len(good))),
		"ops short":        put(opsLen, binary.LittleEndian.Uint64(good[opsLen:])-1),
		"negative ops len": put(opsLen, math.MaxUint64),
	}
	for name, data := range cases {
		if _, err := DecodeBinary(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func FuzzDecodeBinary(f *testing.F) {
	// A deliberately tiny representation: large seeds make mutation
	// unproductively slow.
	pts := make([]vec.V3, 40)
	rng := rand.New(rand.NewSource(5))
	for i := range pts {
		pts[i] = vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
	}
	tree, err := octree.Build(pts, octree.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	rep, err := Extract(tree, ExtractConfig{VolumeRes: 2, Budget: 10})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rep.AppendBinary(nil))
	f.Add(binary.LittleEndian.AppendUint64([]byte("ACHY"), hybridVersion))
	f.Add(make([]byte, 128))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic and never over-allocate on hostile fields.
		_, _ = DecodeBinary(data)
	})
}

// FuzzVolumeRoundTrip: arbitrary volume words — NaN payloads, −0, runs
// on either side of the 128-word literal and 129-word repeat limits —
// go through AppendBinary and DecodeBinary and come back bit for bit,
// in an encoding within the bound SizeBytes states.
func FuzzVolumeRoundTrip(f *testing.F) {
	plane := func(runs ...[2]uint32) []byte { // {word, count} pairs
		var out []byte
		for _, r := range runs {
			for i := uint32(0); i < r[1]; i++ {
				out = binary.LittleEndian.AppendUint32(out, r[0])
			}
		}
		return out
	}
	const nan, nanPayload, sNaN, negZero = 0x7fc00000, 0xffc12345, 0x7f800001, 0x80000000
	f.Add(plane([2]uint32{nan, 1}, [2]uint32{nanPayload, 2}, [2]uint32{sNaN, 1}, [2]uint32{negZero, 3}, [2]uint32{0, 1}, [2]uint32{negZero, 1}))
	f.Add(plane([2]uint32{0, 128}, [2]uint32{negZero, 129}, [2]uint32{nanPayload, 130}, [2]uint32{1, 1}, [2]uint32{0x3f800000, 258}))
	var lits [][2]uint32
	for i := uint32(0); i < 129; i++ {
		lits = append(lits, [2]uint32{i ^ negZero, 1})
	}
	f.Add(plane(append(lits, [2]uint32{7, 2}, [2]uint32{8, 1})...))
	f.Fuzz(func(t *testing.T, data []byte) {
		words := len(data) / 4
		if words == 0 {
			return
		}
		b := vec.Box(vec.New(0, 0, 0), vec.New(1, 1, 1))
		g, err := NewGrid(words, 1, 1, b)
		if err != nil {
			return
		}
		for i := range g.Data {
			g.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		rep := &Representation{Bounds: b, Volume: g,
			Points: []vec.V3{vec.New(0.5, 0.5, 0.5)}, PointDensity: []float32{1}, OrigIndex: []int64{3}}
		enc := rep.AppendBinary(nil)
		if limit := rep.SizeBytes() + int64(words+127)/128; int64(len(enc)) > limit {
			t.Fatalf("%d words encoded in %d bytes, over the bound %d", words, len(enc), limit)
		}
		back, err := DecodeBinary(enc)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range back.Volume.Data {
			if math.Float32bits(v) != math.Float32bits(g.Data[i]) {
				t.Fatalf("word %d: got %08x, want %08x", i, math.Float32bits(v), math.Float32bits(g.Data[i]))
			}
		}
		if !bytes.Equal(back.AppendBinary(nil), enc) {
			t.Fatal("the decoded representation re-encodes differently")
		}
	})
}
