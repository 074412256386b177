package render

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// formatFixture is a 5×3 framebuffer with a two-pixel run, two lone
// pixels, out-of-range channels and the cleared background around them.
func formatFixture() *Framebuffer {
	fb, err := NewFramebuffer(5, 3)
	if err != nil {
		panic(err)
	}
	set := func(x, y int, r, g, b, a, d float32) {
		i := y*fb.W + x
		copy(fb.Color[4*i:], []float32{r, g, b, a})
		fb.Depth[i] = d
	}
	set(1, 0, 1, 0.5, 0.25, 1, 2.5)
	set(2, 0, 1, 0.5, 0.25, 1, 2.5)
	set(3, 1, 0.2, 0.4, 0.6, 0.8, 7)
	set(1, 2, 2, -1, 0.001, 0.999, 0.125)
	return fb
}

func deltaFixture() (cur, base []byte) {
	base = []byte("the quick brown fox jumps over the lazy dog, twice over the lazy dog")
	cur = []byte("the quick brown fox jumps over the lazy cat, twice over the lazy dog!!")
	return cur, base
}

// The fixtures as the codecs encoded them at the commit before their
// headers moved onto internal/wire. A whole frame is the partial of
// sequence number 0: the ACPB bytes with 0 in the seq word.
const (
	acfqRecorded = "41434651010000000500000003000000000000000080ff8040ff830000000000" + // 51 bytes
		"336699cc800000000000ff0000ff8100000000"
	acdlRecorded = "4143444c010000004600000044000000aa7e3534880000000000070e13008400" + // 40 bytes
		"0000000021210000"
	acpbRecorded = "4143504201000000050000000300000003000000010000000000000003000000" + // 134 bytes, seq 3
		"03000000020000803f0000003f0000803e800000803f020000003f0000803e00" +
		"00803f8a0000000007cdcc4c3ecdcccc3e9a99193fcdcc4c3f00000040000080" +
		"bf6f12833a77be7f3f86000000008000002040810000807f010000e040000000" +
		"3e800000807f"
	acpbFrameRecorded = "4143504201000000050000000300000000000000010000000000000003000000" + // 134 bytes, seq 0
		"03000000020000803f0000003f0000803e800000803f020000003f0000803e00" +
		"00803f8a0000000007cdcc4c3ecdcccc3e9a99193fcdcc4c3f00000040000080" +
		"bf6f12833a77be7f3f86000000008000002040810000807f010000e040000000" +
		"3e800000807f"
	acpbEmptyRecorded = "4143504201000000040000000200000009000000000000000000000000000000" + // 36 bytes: 4×2, seq 9
		"00000000"
)

// TestFormatsUnchanged holds every encoder to bytes recorded from its
// predecessor and decodes those bytes back to the fixture.
func TestFormatsUnchanged(t *testing.T) {
	fb := formatFixture()
	cur, base := deltaFixture()
	empty, err := NewFramebuffer(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Both planes bit for bit, through the lossless codec pinned below.
	sameFB := func(t *testing.T, got *Framebuffer) {
		t.Helper()
		if !bytes.Equal(CompressFramebuffer(got), CompressFramebuffer(fb)) {
			t.Error("decoded framebuffer differs from the fixture")
		}
	}
	for _, c := range []struct {
		name     string
		recorded string
		encode   func() []byte
		check    func(t *testing.T, blob []byte)
	}{
		{"ACFQ", acfqRecorded, func() []byte { return CompressFramebufferQuantized(fb) }, func(t *testing.T, blob []byte) {
			got, err := DecodeFramebuffer(blob) // sniffs the magic
			if err != nil {
				t.Fatal(err)
			}
			if got.W != fb.W || got.H != fb.H {
				t.Fatalf("decoded %dx%d, want %dx%d", got.W, got.H, fb.W, fb.H)
			}
			for i, v := range fb.Color {
				if want := float32(clamp8(v)) / 255; got.Color[i] != want {
					t.Fatalf("channel %d = %v, want %v", i, got.Color[i], want)
				}
			}
		}},
		{"ACDL", acdlRecorded, func() []byte { return CompressDelta(cur, base) }, func(t *testing.T, blob []byte) {
			if got, err := DecompressDelta(blob, base); err != nil || !bytes.Equal(got, cur) {
				t.Errorf("reconstructed %q (err %v)", got, err)
			}
		}},
		{"ACPB", acpbRecorded, func() []byte { return AppendPartial([]byte("xy"), fb, 3)[2:] }, func(t *testing.T, blob []byte) {
			got, err := DecompressPartial(blob)
			if err != nil {
				t.Fatal(err)
			}
			if got.Seq != 3 || got.X0 != 1 || got.Y0 != 0 || got.RW != 3 || got.RH != 3 {
				t.Errorf("partial header %+v", got)
			}
			sameFB(t, got.FB)
		}},
		{"ACPB frame", acpbFrameRecorded, func() []byte { return CompressFramebuffer(fb) }, func(t *testing.T, blob []byte) {
			if !bytes.Equal(blob, CompressPartial(fb, 0)) {
				t.Error("a whole frame is not the partial of sequence number 0")
			}
			got, err := DecodeFramebuffer(blob) // sniffs the magic
			if err != nil {
				t.Fatal(err)
			}
			sameFB(t, got)
		}},
		{"ACPB empty", acpbEmptyRecorded, func() []byte { return CompressPartial(empty, 9) }, func(t *testing.T, blob []byte) {
			got, err := DecompressPartial(blob)
			if err != nil || got.Seq != 9 || got.RW != 0 || got.RH != 0 || got.FB.W != 4 || got.FB.H != 2 {
				t.Errorf("empty partial %+v (err %v)", got, err)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, err := hex.DecodeString(c.recorded)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.encode(); !bytes.Equal(got, want) {
				t.Errorf("the encoder changed the bytes:\n got %x\nwant %x", got, want)
			}
			c.check(t, want)
		})
	}
}
