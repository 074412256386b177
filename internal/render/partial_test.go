package render

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/hybrid"
	"repro/internal/vec"
	"repro/internal/wire"
)

// partialFixture renders a deterministic splat cloud into a small
// framebuffer — real coverage with real depths, plus untouched
// background around it.
func partialFixture(t testing.TB, n int) *Framebuffer {
	t.Helper()
	fb, err := NewFramebuffer(64, 48)
	if err != nil {
		t.Fatal(err)
	}
	fb.Clear(hybrid.RGBA{})
	cam, err := LookAtBounds(vec.Box(vec.New(0, 0, 0), vec.New(1, 1, 1)),
		vec.New(0.5, 0.25, 1), math.Pi/3, 64.0/48)
	if err != nil {
		t.Fatal(err)
	}
	rast := NewRasterizer(fb, cam)
	state := uint64(7)
	rnd := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / (1 << 53)
	}
	splats := make([]splat, n)
	for i := range splats {
		splats[i] = splat{
			Pos:    vec.New(0.25+0.5*rnd(), 0.25+0.5*rnd(), 0.25+0.5*rnd()),
			Radius: 1.5,
			Color:  hybrid.RGBA{R: rnd(), G: rnd(), B: rnd(), A: 1},
		}
	}
	drawSplats(rast, splats)
	return fb
}

// TestPartialFramebufferRoundTrip: the depth-augmented codec is
// lossless — every color word, every depth word, the sequence tag and
// the covered rectangle survive the wire exactly.
func TestPartialFramebufferRoundTrip(t *testing.T) {
	fb := partialFixture(t, 120)
	blob := CompressPartial(fb, 5)
	pf, err := DecompressPartial(blob)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Seq != 5 {
		t.Errorf("Seq = %d, want 5", pf.Seq)
	}
	if pf.RW <= 0 || pf.RH <= 0 || pf.RW > fb.W || pf.RH > fb.H {
		t.Errorf("implausible covered rect %dx%d at (%d,%d)", pf.RW, pf.RH, pf.X0, pf.Y0)
	}
	for i := range fb.Color {
		if math.Float32bits(pf.FB.Color[i]) != math.Float32bits(fb.Color[i]) {
			t.Fatalf("color word %d = %g, want %g", i, pf.FB.Color[i], fb.Color[i])
		}
	}
	for i := range fb.Depth {
		if math.Float32bits(pf.FB.Depth[i]) != math.Float32bits(fb.Depth[i]) {
			t.Fatalf("depth word %d = %g, want %g", i, pf.FB.Depth[i], fb.Depth[i])
		}
	}
	// AppendPartial onto an existing buffer leaves the prefix alone and
	// produces the same blob.
	prefix := []byte("prefix")
	appended := AppendPartial(append([]byte(nil), prefix...), fb, 5)
	if !bytes.HasPrefix(appended, prefix) || !bytes.Equal(appended[len(prefix):], blob) {
		t.Error("AppendPartial disagrees with CompressPartial")
	}
}

// TestPartialFramebufferEmpty: an untouched framebuffer encodes as a
// 36-byte header with a 0x0 rect and decodes back to a cleared frame.
func TestPartialFramebufferEmpty(t *testing.T) {
	fb, err := NewFramebuffer(32, 16)
	if err != nil {
		t.Fatal(err)
	}
	fb.Clear(hybrid.RGBA{})
	blob := CompressPartial(fb, 3)
	if len(blob) != 36 {
		t.Errorf("empty partial is %d bytes, want header-only 36", len(blob))
	}
	pf, err := DecompressPartial(blob)
	if err != nil {
		t.Fatal(err)
	}
	if pf.RW != 0 || pf.RH != 0 || pf.Seq != 3 {
		t.Errorf("empty partial decoded to rect %dx%d seq %d", pf.RW, pf.RH, pf.Seq)
	}
	inf := float32(math.Inf(1))
	for i, d := range pf.FB.Depth {
		if d != inf {
			t.Fatalf("depth %d = %g, want +Inf background", i, d)
		}
	}
}

// TestPartialKeepsEveryWord: a pixel is background only when it is
// bit for bit four +0 color words at +Inf depth. An 8×8 frame holds one
// lit pixel at (6, 6) and, at (1, 2), a pixel at +Inf depth whose only
// mark is one odd color word: the rectangle must reach it, and both the
// partial and the whole-frame round trip must return every word.
func TestPartialKeepsEveryWord(t *testing.T) {
	for _, c := range []struct {
		name string
		word uint32
	}{
		{"−0 green", 0x80000000},
		{"NaN-payload green", 0x7fc00123},
	} {
		fb, err := NewFramebuffer(8, 8)
		if err != nil {
			t.Fatal(err)
		}
		lit := 6*8 + 6
		copy(fb.Color[4*lit:], []float32{0.5, 0.25, 1, 1})
		fb.Depth[lit] = 0.5
		fb.Color[4*(2*8+1)+1] = math.Float32frombits(c.word)
		pf, err := DecompressPartial(CompressPartial(fb, 4))
		if err != nil {
			t.Fatal(err)
		}
		if pf.X0 != 1 || pf.Y0 != 2 || pf.RW != 6 || pf.RH != 5 {
			t.Errorf("%s: rect %dx%d at (%d,%d), want 6x5 at (1,2)", c.name, pf.RW, pf.RH, pf.X0, pf.Y0)
		}
		whole, err := DecompressFramebuffer(CompressFramebuffer(fb))
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []*Framebuffer{pf.FB, whole} {
			if !bytes.Equal(wire.F32Bytes(got.Color), wire.F32Bytes(fb.Color)) ||
				!bytes.Equal(wire.F32Bytes(got.Depth), wire.F32Bytes(fb.Depth)) {
				t.Errorf("%s: the round trip changed a word", c.name)
			}
		}
	}
}

// TestPartialFramebufferMalformed: every corruption class errors
// cleanly — no panic, no acceptance.
func TestPartialFramebufferMalformed(t *testing.T) {
	good := CompressPartial(partialFixture(t, 60), 1)
	le := func(b []byte, off int, v uint32) []byte {
		out := append([]byte(nil), b...)
		out[off] = byte(v)
		out[off+1] = byte(v >> 8)
		out[off+2] = byte(v >> 16)
		out[off+3] = byte(v >> 24)
		return out
	}
	cases := map[string][]byte{
		"empty":            {},
		"truncated header": good[:20],
		"bad magic":        append([]byte("XXXX"), good[4:]...),
		"bad version":      le(good, 4, 99),
		"zero width":       le(good, 8, 0),
		"huge dims":        le(le(good, 8, 1<<20), 12, 1<<20),
		"rect outside":     le(good, 20, 1<<15),
		"half-empty rect":  le(le(good, 28, 0), 32, 7),
		"truncated planes": good[:len(good)-5],
		"trailing bytes":   append(append([]byte(nil), good...), 0xab),
	}
	for name, data := range cases {
		if _, err := DecompressPartial(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// FuzzPartialFramebuffer: the decoder must never panic or
// over-allocate on hostile input, the whole-frame decoder must accept
// exactly what it accepts and return the same frame, and everything
// it accepts must re-encode to a blob that decodes to the same words.
func FuzzPartialFramebuffer(f *testing.F) {
	f.Add(CompressPartial(partialFixture(f, 80), 2))
	empty, err := NewFramebuffer(8, 8)
	if err != nil {
		f.Fatal(err)
	}
	empty.Clear(hybrid.RGBA{})
	f.Add(CompressPartial(empty, 0))
	negZero := *empty
	negZero.Color = slices.Clone(empty.Color)
	negZero.Color[4*(3*8+2)+1] = float32(math.Copysign(0, -1))
	f.Add(CompressFramebuffer(&negZero))
	f.Add([]byte("ACPB"))
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		pf, err := DecompressPartial(data)
		whole, wholeErr := DecompressFramebuffer(data)
		if fmt.Sprint(err) != fmt.Sprint(wholeErr) {
			t.Fatalf("DecompressFramebuffer: %v, DecompressPartial: %v", wholeErr, err)
		}
		if err != nil {
			return
		}
		back, err := DecompressPartial(CompressPartial(pf.FB, pf.Seq))
		if err != nil {
			t.Fatalf("accepted partial failed to round-trip: %v", err)
		}
		for _, got := range []*Framebuffer{whole, back.FB} {
			if !bytes.Equal(wire.F32Bytes(got.Color), wire.F32Bytes(pf.FB.Color)) {
				t.Fatal("a color word differs")
			}
			if !bytes.Equal(wire.F32Bytes(got.Depth), wire.F32Bytes(pf.FB.Depth)) {
				t.Fatal("a depth word differs")
			}
		}
	})
}
