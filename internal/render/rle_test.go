package render

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/hybrid"
	"repro/internal/wire"
)

// roundTrip compresses and decompresses fb, asserting bit-exactness of
// both planes.
func roundTrip(t *testing.T, fb *Framebuffer) []byte {
	t.Helper()
	blob := CompressFramebuffer(fb)
	got, err := DecompressFramebuffer(blob)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if got.W != fb.W || got.H != fb.H {
		t.Fatalf("size %dx%d, want %dx%d", got.W, got.H, fb.W, fb.H)
	}
	for i := range fb.Color {
		if math.Float32bits(got.Color[i]) != math.Float32bits(fb.Color[i]) {
			t.Fatalf("color word %d: %x != %x", i, math.Float32bits(got.Color[i]), math.Float32bits(fb.Color[i]))
		}
	}
	for i := range fb.Depth {
		if math.Float32bits(got.Depth[i]) != math.Float32bits(fb.Depth[i]) {
			t.Fatalf("depth word %d differs", i)
		}
	}
	return blob
}

func TestRLEEmptyFramebuffer(t *testing.T) {
	fb, err := NewFramebuffer(64, 48)
	if err != nil {
		t.Fatal(err)
	}
	blob := roundTrip(t, fb)
	raw := len(fb.Color)*4 + len(fb.Depth)*4
	if len(blob) >= raw/10 {
		t.Errorf("empty frame compressed to %d bytes, want far below raw %d", len(blob), raw)
	}
}

func TestRLESparseFrame(t *testing.T) {
	fb, err := NewFramebuffer(96, 96)
	if err != nil {
		t.Fatal(err)
	}
	// Sparse coverage like a rendered splat frame: a few hundred lit
	// pixels on a transparent background.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		x, y := rng.Intn(fb.W), rng.Intn(fb.H)
		fb.writeFragment(x, y, rng.Float32(), hybrid.RGBA{
			R: rng.Float64(), G: rng.Float64(), B: rng.Float64(), A: 0.7,
		}, BlendAlpha, true, true)
	}
	blob := roundTrip(t, fb)
	raw := len(fb.Color)*4 + len(fb.Depth)*4
	if len(blob) >= raw {
		t.Errorf("sparse frame compressed to %d bytes, raw %d", len(blob), raw)
	}
}

func TestRLEWorstCaseNoise(t *testing.T) {
	fb, err := NewFramebuffer(37, 23) // odd sizes hit chunk boundaries
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := range fb.Color {
		fb.Color[i] = rng.Float32()
	}
	for i := range fb.Depth {
		fb.Depth[i] = rng.Float32()
	}
	roundTrip(t, fb)
}

func TestRLERunsAcrossChunkBoundaries(t *testing.T) {
	fb, err := NewFramebuffer(100, 7)
	if err != nil {
		t.Fatal(err)
	}
	// A >129-word run, a 1-word orphan, alternating words, another run.
	for i := range fb.Color {
		switch {
		case i < 300:
			fb.Color[i] = 3.25
		case i == 300:
			fb.Color[i] = -1
		case i < 600:
			fb.Color[i] = float32(i % 2)
		default:
			fb.Color[i] = 7
		}
	}
	roundTrip(t, fb)
}

func TestRLEDecodeMalformed(t *testing.T) {
	fb, err := NewFramebuffer(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	good := CompressFramebuffer(fb)
	cases := map[string][]byte{
		"empty":            {},
		"short header":     good[:10],
		"bad magic":        append([]byte("XXXX"), good[4:]...),
		"bad version":      append(append([]byte{}, good[:4]...), append([]byte{99, 0, 0, 0}, good[8:]...)...),
		"zero width":       append(append([]byte{}, good[:8]...), append([]byte{0, 0, 0, 0}, good[12:]...)...),
		"huge dims":        append(append([]byte{}, good[:8]...), append([]byte{255, 255, 255, 255, 255, 255, 255, 255}, good[16:]...)...),
		"truncated body":   good[:len(good)-3],
		"trailing garbage": append(append([]byte{}, good...), 1, 2, 3),
	}
	for name, data := range cases {
		if _, err := DecompressFramebuffer(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if !bytes.Equal(good, CompressFramebuffer(fb)) {
		t.Error("compression not deterministic")
	}
}

func FuzzDecompressFramebuffer(f *testing.F) {
	fb, _ := NewFramebuffer(8, 8)
	f.Add(CompressFramebuffer(fb))
	f.Add([]byte("ACFB\x01\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fb, err := DecompressFramebuffer(data) // must never panic
		if err == nil && fb == nil {
			t.Fatal("nil framebuffer without error")
		}
	})
}

// The picture codecs as they stood before they moved onto the byte-plane
// pair: every plane held as uint32 words, the op stream written and read
// word by word. They are the oracle TestCodecsMatchReference and
// FuzzCodecsMatchReference hold the shipped ACFB, ACFQ and ACPB codecs
// to, byte for byte and refusal for refusal, and refCompressDelta and
// refDecompressDelta (delta_test.go) are built on the same pair.

// bitWords views a float32 plane as its bit patterns, the words the RLE
// ops run over: no copy, and a NaN keeps its payload.
func bitWords(plane []float32) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(plane))), len(plane))
}

// refAppendRLEWords encodes words as RLE ops.
func refAppendRLEWords(out []byte, words []uint32) []byte {
	le := binary.LittleEndian
	i := 0
	litStart := -1
	flushLits := func(end int) {
		for litStart < end {
			n := end - litStart
			if n > 128 {
				n = 128
			}
			out = append(out, byte(n-1))
			for _, w := range words[litStart : litStart+n] {
				out = le.AppendUint32(out, w)
			}
			litStart += n
		}
		litStart = -1
	}
	for i < len(words) {
		run := 1
		for i+run < len(words) && words[i+run] == words[i] {
			run++
		}
		if run >= 2 {
			if litStart >= 0 {
				flushLits(i)
			}
			for run > 0 {
				n := run
				if n > 129 {
					n = 129
				}
				if n < 2 { // a leftover single word joins the next literal run
					break
				}
				out = append(out, byte(0x80|(n-2)))
				out = le.AppendUint32(out, words[i])
				i += n
				run -= n
			}
			if run == 1 {
				litStart = i
				i++
			}
			continue
		}
		if litStart < 0 {
			litStart = i
		}
		i++
	}
	if litStart >= 0 {
		flushLits(len(words))
	}
	return out
}

// refDecodeRLEWords fills dst exactly with uint32 words, returning the
// unconsumed remainder. Malformed input errors; it never panics.
func refDecodeRLEWords(data []byte, dst []uint32) ([]byte, error) {
	le := binary.LittleEndian
	i := 0
	for i < len(dst) {
		if len(data) == 0 {
			return nil, fmt.Errorf("stream ended %d words short", len(dst)-i)
		}
		c := data[0]
		data = data[1:]
		if c < 0x80 {
			n := int(c) + 1
			if n > len(dst)-i {
				return nil, fmt.Errorf("literal run of %d overruns plane", n)
			}
			if len(data) < 4*n {
				return nil, fmt.Errorf("literal run truncated")
			}
			for k := 0; k < n; k++ {
				dst[i+k] = le.Uint32(data[4*k:])
			}
			data = data[4*n:]
			i += n
		} else {
			n := int(c&0x7f) + 2
			if n > len(dst)-i {
				return nil, fmt.Errorf("repeat run of %d overruns plane", n)
			}
			if len(data) < 4 {
				return nil, fmt.Errorf("repeat run truncated")
			}
			v := le.Uint32(data)
			data = data[4:]
			for k := 0; k < n; k++ {
				dst[i+k] = v
			}
			i += n
		}
	}
	return data, nil
}

func refCompressFramebuffer(fb *Framebuffer) []byte {
	out := wire.Begin(make([]byte, 0, 16+len(fb.Color)), magicFB, fbCodecVersion, 4)
	out = wire.U32s(out, uint32(fb.W), uint32(fb.H))
	out = refAppendRLEWords(out, bitWords(fb.Color))
	return refAppendRLEWords(out, bitWords(fb.Depth))
}

func refDecompressFramebuffer(data []byte) (*Framebuffer, error) {
	w, h, rest, err := openFramebuffer("render: framebuffer", data, magicFB, fbCodecVersion, 5)
	if err != nil {
		return nil, err
	}
	fb, err := NewFramebuffer(w, h)
	if err != nil {
		return nil, err
	}
	if rest, err = refDecodeRLEWords(rest, bitWords(fb.Color)); err != nil {
		return nil, fmt.Errorf("render: color plane: %w", err)
	}
	if rest, err = refDecodeRLEWords(rest, bitWords(fb.Depth)); err != nil {
		return nil, fmt.Errorf("render: depth plane: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("render: %d trailing bytes after framebuffer", len(rest))
	}
	return fb, nil
}

func refCompressFramebufferQuantized(fb *Framebuffer) []byte {
	words := make([]uint32, fb.W*fb.H)
	for i := range words {
		c := fb.Color[i*4:]
		words[i] = uint32(clamp8(c[0])) |
			uint32(clamp8(c[1]))<<8 |
			uint32(clamp8(c[2]))<<16 |
			uint32(clamp8(c[3]))<<24
	}
	out := wire.Begin(make([]byte, 0, 16+len(words)), magicFBQ, fbqCodecVersion, 4)
	out = wire.U32s(out, uint32(fb.W), uint32(fb.H))
	return refAppendRLEWords(out, words)
}

func refDecompressFramebufferQuantized(data []byte) (*Framebuffer, error) {
	w, h, rest, err := openFramebuffer("render: quantized framebuffer", data, magicFBQ, fbqCodecVersion, 1)
	if err != nil {
		return nil, err
	}
	words := make([]uint32, w*h)
	if rest, err = refDecodeRLEWords(rest, words); err != nil {
		return nil, fmt.Errorf("render: quantized color plane: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("render: %d trailing bytes after quantized framebuffer", len(rest))
	}
	fb, err := NewFramebuffer(w, h)
	if err != nil {
		return nil, err
	}
	for i, word := range words {
		fb.Color[i*4+0] = float32(word&0xff) / 255
		fb.Color[i*4+1] = float32(word>>8&0xff) / 255
		fb.Color[i*4+2] = float32(word>>16&0xff) / 255
		fb.Color[i*4+3] = float32(word>>24&0xff) / 255
	}
	return fb, nil
}

func refCompressPartial(fb *Framebuffer, seq int) []byte {
	inf := math.Float32bits(float32(math.Inf(1)))
	x0, y0, x1, y1 := fb.W, fb.H, -1, -1
	for y := 0; y < fb.H; y++ {
		row := y * fb.W
		for x := 0; x < fb.W; x++ {
			i := row + x
			ci := i * 4
			if math.Float32bits(fb.Depth[i]) == inf &&
				fb.Color[ci] == 0 && fb.Color[ci+1] == 0 &&
				fb.Color[ci+2] == 0 && fb.Color[ci+3] == 0 {
				continue
			}
			if x < x0 {
				x0 = x
			}
			if x > x1 {
				x1 = x
			}
			if y < y0 {
				y0 = y
			}
			if y > y1 {
				y1 = y
			}
		}
	}
	rw, rh := 0, 0
	if x1 >= 0 {
		rw, rh = x1-x0+1, y1-y0+1
	} else {
		x0, y0 = 0, 0
	}
	out := wire.Begin(wire.Grow(nil, 36+rw*rh*4), magicPB, pbCodecVersion, 4)
	out = wire.U32s(out, uint32(fb.W), uint32(fb.H), uint32(seq), uint32(x0), uint32(y0), uint32(rw), uint32(rh))
	if rw == 0 {
		return out
	}
	color := make([]float32, rw*rh*4)
	depth := make([]float32, rw*rh)
	for y := 0; y < rh; y++ {
		src := (y0+y)*fb.W + x0
		copy(color[y*rw*4:(y+1)*rw*4], fb.Color[src*4:(src+rw)*4])
		copy(depth[y*rw:(y+1)*rw], fb.Depth[src:src+rw])
	}
	out = refAppendRLEWords(out, bitWords(color))
	out = refAppendRLEWords(out, bitWords(depth))
	return out
}

func refDecompressPartial(data []byte) (*PartialFrame, error) {
	rd := wire.Open("render: partial framebuffer", data, magicPB, pbCodecVersion, 4, false)
	w, h, seq := int(rd.U32()), int(rd.U32()), int(rd.U32())
	x0, y0, rw, rh := int(rd.U32()), int(rd.U32()), int(rd.U32()), int(rd.U32())
	if w < 1 || h < 1 || w > 4096 || h > 4096 || int64(w)*int64(h) > 1<<22 {
		rd.Fail("implausible size %dx%d", w, h)
	}
	if (rw == 0) != (rh == 0) || rw < 0 || rh < 0 ||
		x0 < 0 || y0 < 0 || x0+rw > w || y0+rh > h {
		rd.Fail("rect %dx%d at (%d,%d) outside %dx%d frame", rw, rh, x0, y0, w, h)
	}
	rest := rd.Take(rd.Len())
	rleBound(&rd, len(rest), int64(rw)*int64(rh)*5)
	if err := rd.Err(); err != nil {
		return nil, err
	}
	fb, err := NewFramebuffer(w, h)
	if err != nil {
		return nil, err
	}
	p := &PartialFrame{FB: fb, Seq: seq, X0: x0, Y0: y0, RW: rw, RH: rh}
	if rw > 0 {
		color := make([]float32, rw*rh*4)
		depth := make([]float32, rw*rh)
		if rest, err = refDecodeRLEWords(rest, bitWords(color)); err != nil {
			return nil, fmt.Errorf("render: partial color plane: %w", err)
		}
		if rest, err = refDecodeRLEWords(rest, bitWords(depth)); err != nil {
			return nil, fmt.Errorf("render: partial depth plane: %w", err)
		}
		for y := 0; y < rh; y++ {
			dst := (y0+y)*w + x0
			copy(fb.Color[dst*4:(dst+rw)*4], color[y*rw*4:(y+1)*rw*4])
			copy(fb.Depth[dst:dst+rw], depth[y*rw:(y+1)*rw])
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("render: %d trailing bytes after partial framebuffer", len(rest))
	}
	return p, nil
}

// pictureCodec is one picture codec under differential test, the
// shipped pair beside the oracle's. A decoder returns the frame and, for
// a partial, its sequence tag and rectangle as text.
type pictureCodec struct {
	name        string
	header      int // bytes before the first op
	enc, refEnc func(*Framebuffer) []byte
	dec, refDec func([]byte) (*Framebuffer, string, error)
}

func pictureCodecs() []pictureCodec {
	frame := func(dec func([]byte) (*Framebuffer, error)) func([]byte) (*Framebuffer, string, error) {
		return func(p []byte) (*Framebuffer, string, error) {
			fb, err := dec(p)
			return fb, "", err
		}
	}
	partial := func(dec func([]byte) (*PartialFrame, error)) func([]byte) (*Framebuffer, string, error) {
		return func(p []byte) (*Framebuffer, string, error) {
			pf, err := dec(p)
			if err != nil {
				return nil, "", err
			}
			return pf.FB, fmt.Sprintf("seq %d, %dx%d at (%d,%d)", pf.Seq, pf.RW, pf.RH, pf.X0, pf.Y0), nil
		}
	}
	return []pictureCodec{
		{"ACFB", 16, CompressFramebuffer, refCompressFramebuffer,
			frame(DecompressFramebuffer), frame(refDecompressFramebuffer)},
		{"ACFQ", 16, CompressFramebufferQuantized, refCompressFramebufferQuantized,
			frame(DecompressFramebufferQuantized), frame(refDecompressFramebufferQuantized)},
		{"ACPB", 36, func(fb *Framebuffer) []byte { return AppendPartial(nil, fb, 7) },
			func(fb *Framebuffer) []byte { return refCompressPartial(fb, 7) },
			partial(DecompressPartial), partial(refDecompressPartial)},
	}
}

// pictureDiff holds c to the oracle on one frame: the encoder's blob
// byte-equal, and the decoder's result on that blob and on damaged
// copies of it equal in bits and in error text. "" means no difference.
func pictureDiff(c pictureCodec, fb *Framebuffer) (d string) {
	defer func() {
		if r := recover(); r != nil {
			d = fmt.Sprint("panic: ", r)
		}
	}()
	want := c.refEnc(fb)
	if got := c.enc(fb); !bytes.Equal(got, want) {
		return fmt.Sprintf("encoder: %d bytes, want %d; first difference at byte %d", len(got), len(want), firstDiff(got, want))
	}
	flip := func(i int) []byte {
		out := bytes.Clone(want)
		if i < len(out) {
			out[i] ^= 0xff
		}
		return out
	}
	for _, b := range []struct {
		damage string
		blob   []byte
	}{
		{"whole", want},
		{"last byte cut", want[:len(want)-1]},
		{"cut in half", want[:len(want)/2]},
		{"one trailing byte", append(bytes.Clone(want), 0)},
		{"first op flipped", flip(c.header)},
		{"middle byte flipped", flip((c.header + len(want)) / 2)},
		{"last byte flipped", flip(len(want) - 1)},
	} {
		if d := pictureDecodeDiff(c, b.blob); d != "" {
			return b.damage + ": " + d
		}
	}
	return ""
}

func pictureDecodeDiff(c pictureCodec, blob []byte) (d string) {
	defer func() {
		if r := recover(); r != nil {
			d = fmt.Sprint("panic: ", r)
		}
	}()
	want, wantHdr, wantErr := c.refDec(blob)
	got, gotHdr, err := c.dec(blob)
	switch {
	case fmt.Sprint(err) != fmt.Sprint(wantErr):
		return fmt.Sprintf("decoder: error %v, want %v", err, wantErr)
	case err != nil:
		return ""
	case gotHdr != wantHdr:
		return fmt.Sprintf("decoder: %s, want %s", gotHdr, wantHdr)
	case got.W != want.W || got.H != want.H:
		return fmt.Sprintf("decoder: %dx%d, want %dx%d", got.W, got.H, want.W, want.H)
	case !bytes.Equal(floatBytes(got.Color), floatBytes(want.Color)):
		return "decoder: color plane differs in bits"
	case !bytes.Equal(floatBytes(got.Depth), floatBytes(want.Depth)):
		return "decoder: depth plane differs in bits"
	}
	return ""
}

type pictureCase struct {
	name string
	fb   *Framebuffer
}

// pictureCases is the matrix of the differential test: tiny and
// benchmark-size frames; NaN payloads, −0 and infinities in both
// planes; runs of exactly 1, 2, 128, 129, 130 and 258 words in the
// float planes and in the quantized words; and partial rectangles that
// touch each edge, or none, or are empty.
func pictureCases(t testing.TB) []pictureCase {
	rng := rand.New(rand.NewSource(29))
	blank := func(w, h int) *Framebuffer {
		fb, err := NewFramebuffer(w, h)
		if err != nil {
			t.Fatal(err)
		}
		return fb
	}
	cases := []pictureCase{{"1x1 cleared", blank(1, 1)}}
	one := blank(1, 1)
	copy(one.Color, []float32{0.5, 0.25, 1, 1})
	one.Depth[0] = 0.3
	cases = append(cases, pictureCase{"1x1 lit", one})

	// Every word of a 3x5 frame from a list of special words, cycled at
	// strides prime to its length so that both planes hold each one.
	specials := []uint32{
		0x7fc00001, // quiet NaN with a payload
		0x7f800001, // signalling NaN
		0xffc00000, // negative quiet NaN
		0x80000000, // −0
		0x7f800000, // +Inf
		0xff800000, // −Inf
		0, 0x3f800000, 0x40000000, 0xbf800000, 0x3e800000,
	}
	sp := blank(3, 5)
	for i := range sp.Color {
		sp.Color[i] = math.Float32frombits(specials[(7*i)%len(specials)])
	}
	for i := range sp.Depth {
		sp.Depth[i] = math.Float32frombits(specials[(3*i)%len(specials)])
	}
	cases = append(cases, pictureCase{"3x5 special words", sp})

	// runs is literal noise between runs of exactly r equal words, r on
	// both sides of the 128-word literal and 129-word repeat limits.
	runs := func(word uint32) []uint32 {
		var words []uint32
		lits := func(n int) {
			for ; n > 0; n-- {
				words = append(words, rng.Uint32()) // noise: practically never a run, or the run word
			}
		}
		for _, r := range []int{1, 2, 128, 129, 130, 258} {
			lits(3)
			for k := 0; k < r; k++ {
				words = append(words, word)
			}
		}
		lits(130)
		return words
	}
	fr := blank(32, 32)
	color, depth := bitWords(fr.Color), bitWords(fr.Depth)
	for i, w := range []uint32{0, 0x7f800000, 0xdeadbeef, 0x7fc00001} {
		copy(color[i*800:], runs(w))
	}
	copy(depth, runs(0x7f800000))
	cases = append(cases, pictureCase{"32x32 runs in both float planes", fr})

	// The same runs in the quantized words: each pixel's channels are a
	// word's bytes over 255, which quantize back to those bytes.
	qr := blank(48, 48)
	var px []uint32
	for _, w := range []uint32{0, 0xff336699, 0x80808080} {
		px = append(px, runs(w)...)
	}
	for i, w := range px[:qr.W*qr.H] {
		for k := 0; k < 4; k++ {
			qr.Color[4*i+k] = float32(byte(w>>(8*k))) / 255
		}
	}
	cases = append(cases, pictureCase{"48x48 runs in the quantized words", qr})

	// Partial rectangles on a 23x17 frame.
	lit := func(name string, pixels ...[2]int) {
		fb := blank(23, 17)
		for k, p := range pixels {
			i := p[1]*fb.W + p[0]
			copy(fb.Color[4*i:], []float32{0.25, 0.5, float32(k), 1})
			fb.Depth[i] = float32(k) / 8
		}
		cases = append(cases, pictureCase{name, fb})
	}
	lit("partial touching the left edge", [2]int{0, 8}, [2]int{5, 9})
	lit("partial touching the right edge", [2]int{22, 3}, [2]int{15, 4})
	lit("partial touching the top edge", [2]int{10, 0}, [2]int{12, 5})
	lit("partial touching the bottom edge", [2]int{3, 16}, [2]int{7, 10})
	lit("partial touching all four edges", [2]int{0, 0}, [2]int{22, 16})
	lit("partial of one interior pixel", [2]int{11, 8})
	column := make([][2]int, 17)
	for y := range column {
		column[y] = [2]int{4, y}
	}
	lit("partial of one column", column...)
	depthOnly := blank(23, 17)
	depthOnly.Depth[5*23+6] = 0.5 // covered by its depth alone
	colorOnly := blank(23, 17)
	colorOnly.Color[4*(9*23+20)+3] = 0.5 // covered by its alpha alone, at +Inf depth
	cases = append(cases,
		pictureCase{"partial covered by depth alone", depthOnly},
		pictureCase{"partial covered by alpha alone", colorOnly},
		pictureCase{"empty partial", blank(23, 17)},
		pictureCase{"512x512 cleared", blank(512, 512)},
	)
	for _, n := range []int{100, 4_000, 40_000} {
		cases = append(cases, pictureCase{fmt.Sprintf("512x512, %d fragments", n), quantFrame(t, 512, 512, n)})
	}
	return cases
}

// TestCodecsMatchReference: the shipped ACFB, ACFQ and ACPB codecs
// write the oracle's blob and decode it, and damaged copies of it, to
// the oracle's frame or the oracle's refusal on every row of the matrix.
func TestCodecsMatchReference(t *testing.T) {
	for _, pc := range pictureCases(t) {
		for _, c := range pictureCodecs() {
			if d := pictureDiff(c, pc.fb); d != "" {
				t.Errorf("%s, %s: %s", c.name, pc.name, d)
			}
		}
	}
}

// FuzzCodecsMatchReference: fuzzed bytes are decoded as a blob by each
// shipped decoder and its oracle, which must agree; then they describe
// a frame that each shipped encoder must write as its oracle does. In
// the frame, data[0] and data[1] size it and each later byte b puts
// (b>>3)+1 copies of palette word b&7 into the color plane, then the
// depth plane, so runs of every length come easily.
func FuzzCodecsMatchReference(f *testing.F) {
	fb := formatFixture()
	for _, c := range pictureCodecs() {
		blob := c.enc(fb)
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
	f.Add([]byte{4, 2, 0xff, 0xff, 0xff, 0xfc, 1, 2, 3, 0x7e, 0x09})
	f.Add([]byte{8, 6, 0x0c, 0x0d, 0x0e, 0x0f, 0xf8})
	palette := []uint32{0, 0x7f800000, 0x7fc00001, 0x80000000, 0x3f800000, 0x7f800001, 0xdeadbeef, 0x3e800000}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range pictureCodecs() {
			if d := pictureDecodeDiff(c, data); d != "" {
				t.Fatalf("%s: %s", c.name, d)
			}
		}
		if len(data) < 2 {
			return
		}
		fb, err := NewFramebuffer(1+int(data[0]%9), 1+int(data[1]%7))
		if err != nil {
			t.Fatal(err)
		}
		planes := [][]uint32{bitWords(fb.Color), bitWords(fb.Depth)}
		i := 0
		for _, b := range data[2:] {
			for n := int(b>>3) + 1; n > 0 && len(planes) > 0; n-- {
				planes[0][i] = palette[b&7]
				if i++; i == len(planes[0]) {
					planes, i = planes[1:], 0
				}
			}
		}
		for _, c := range pictureCodecs() {
			if d := pictureDiff(c, fb); d != "" {
				t.Fatalf("%s: %s", c.name, d)
			}
		}
	})
}

// TestCodecsAllocate: in steady state each picture encoder allocates
// the blob it returns (AppendPartial into a big enough dst: nothing)
// and each decoder the frame it returns — there is no quantized word
// array and no per-partial plane; both come from the scratch list.
func TestCodecsAllocate(t *testing.T) {
	fb := quantFrame(t, 256, 256, 4_000)
	// A partial as a sort-last worker sends one: a window of fb lit.
	part, err := NewFramebuffer(256, 256)
	if err != nil {
		t.Fatal(err)
	}
	for y := 64; y < 160; y++ {
		i := y*256 + 40
		copy(part.Color[4*i:4*(i+150)], fb.Color[4*i:])
		copy(part.Depth[i:i+150], fb.Depth[i:])
	}
	frameBytes := uint64(20*len(fb.Depth)) + uint64(unsafe.Sizeof(Framebuffer{}))
	fbBlob, quantBlob, partBlob := CompressFramebuffer(fb), CompressFramebufferQuantized(fb), CompressPartial(part, 1)
	dst := make([]byte, 0, 21*len(part.Depth))
	decoded := func(_ any, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name   string
		allocs float64
		bytes  uint64
		call   func()
	}{
		{"CompressFramebuffer", 1, uint64(len(fbBlob)), func() { CompressFramebuffer(fb) }},
		{"CompressFramebufferQuantized", 1, uint64(len(quantBlob)), func() { CompressFramebufferQuantized(fb) }},
		{"AppendPartial", 0, 0, func() { AppendPartial(dst[:0], part, 1) }},
		{"DecompressFramebuffer", 3, frameBytes, func() { decoded(DecompressFramebuffer(fbBlob)) }},
		{"DecompressFramebufferQuantized", 3, frameBytes, func() { decoded(DecompressFramebufferQuantized(quantBlob)) }},
		{"DecompressPartial", 4, frameBytes + uint64(unsafe.Sizeof(PartialFrame{})), func() { decoded(DecompressPartial(partBlob)) }},
	} {
		if n := testing.AllocsPerRun(10, c.call); n != c.allocs {
			t.Errorf("%s makes %v allocations a call, want %v", c.name, n, c.allocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.call()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > c.bytes+c.bytes/16+8<<10 { // a size class rounds up by up to a page
			t.Errorf("%s allocated %d bytes a call, want about %d", c.name, got, c.bytes)
		}
	}
}

// TestDecodersRefuseUnrenderedSizes: a picture header larger than any
// frame the service renders is refused before anything is allocated,
// however many ops follow it. Each forged blob here carries exactly the
// repeat ops its 2049x2049 header calls for, so the RLE bound passes
// it: the lossless and quantized decoders once accepted it and
// allocated the 84 MB frame, up to 6 GiB at 16384².
func TestDecodersRefuseUnrenderedSizes(t *testing.T) {
	const side = 2049
	// repeats encodes n zero words as repeat ops of 129 and one shorter.
	repeats := func(n int) []byte {
		ops := bytes.Repeat([]byte{0xff, 0, 0, 0, 0}, n/129)
		if r := n % 129; r == 1 {
			ops = append(ops, 0x00, 0, 0, 0, 0)
		} else if r > 1 {
			ops = append(ops, byte(0x80|(r-2)), 0, 0, 0, 0)
		}
		return ops
	}
	header := func(magic string) []byte {
		le := binary.LittleEndian
		return le.AppendUint32(le.AppendUint32(le.AppendUint32([]byte(magic), 1), side), side)
	}
	for _, c := range []struct {
		name   string
		blob   []byte
		decode func([]byte) error
	}{
		{"ACFB", append(append(header("ACFB"), repeats(4*side*side)...), repeats(side*side)...),
			func(p []byte) error { _, err := DecompressFramebuffer(p); return err }},
		{"ACFQ", append(header("ACFQ"), repeats(side*side)...),
			func(p []byte) error { _, err := DecompressFramebufferQuantized(p); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.decode(c.blob)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "implausible size") {
			t.Errorf("%s %dx%d in %d bytes: %v, want an implausible size", c.name, side, side, len(c.blob), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: refusing %d bytes allocated %d bytes", c.name, len(c.blob), got)
		}
	}
}
