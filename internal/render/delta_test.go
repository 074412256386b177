package render

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/wire"
)

// deltaRoundTrip asserts cur survives the delta codec bit for bit
// against base, returning the blob.
func deltaRoundTrip(t *testing.T, cur, base []byte) []byte {
	t.Helper()
	blob := CompressDelta(cur, base)
	got, err := DecompressDelta(blob, base)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !bytes.Equal(got, cur) {
		t.Fatalf("delta round trip mangled stream: %d bytes in, %d out", len(cur), len(got))
	}
	return blob
}

func TestDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	noise := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	base := noise(10_000)

	// Identical streams collapse to a near-empty residual.
	same := append([]byte(nil), base...)
	if blob := deltaRoundTrip(t, same, base); len(blob) >= len(base)/50 {
		t.Errorf("identical-stream delta is %d bytes for a %d-byte stream", len(blob), len(base))
	}

	// A localized edit costs roughly the edit, not the stream.
	edited := append([]byte(nil), base...)
	copy(edited[4000:], noise(100))
	if blob := deltaRoundTrip(t, edited, base); len(blob) >= len(base)/4 {
		t.Errorf("100-byte edit delta is %d bytes for a %d-byte stream", len(blob), len(base))
	}

	// Length changes in both directions, including non-word tails.
	for _, n := range []int{0, 1, 3, 4, 5, 9_997, 10_000, 10_001, 13_003} {
		cur := noise(n)
		deltaRoundTrip(t, cur, base)
	}
	// And against an empty base (degrades to RLE over cur).
	deltaRoundTrip(t, noise(503), nil)
	deltaRoundTrip(t, nil, nil)
}

// TestDeltaWrongBase: applying a delta to a stream other than the one
// it was encoded against must fail, not hand back a corrupt frame.
func TestDeltaWrongBase(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := make([]byte, 2048)
	rng.Read(base)
	cur := append([]byte(nil), base...)
	cur[100] ^= 0xff
	blob := CompressDelta(cur, base)

	wrongLen := base[:2047]
	if _, err := DecompressDelta(blob, wrongLen); err == nil {
		t.Error("wrong-length base accepted")
	}
	wrong := append([]byte(nil), base...)
	wrong[9] ^= 1
	if _, err := DecompressDelta(blob, wrong); err == nil {
		t.Error("wrong-content base accepted (checksum must catch it)")
	}
}

func TestDeltaDecodeMalformed(t *testing.T) {
	base := []byte("the quick brown fox jumps over the lazy dog")
	good := CompressDelta([]byte("the quick brown cat jumps over the lazy dog"), base)
	cases := map[string][]byte{
		"empty":            {},
		"short header":     good[:10],
		"bad magic":        append([]byte("XXXX"), good[4:]...),
		"bad version":      flipDeltaByte(good, 4),
		"huge target":      append(append([]byte{}, good[:8]...), append([]byte{255, 255, 255, 255}, good[12:]...)...),
		"truncated body":   good[:len(good)-3],
		"trailing garbage": append(append([]byte{}, good...), 9, 9, 9),
		"flipped residual": flipDeltaByte(good, len(good)-1),
	}
	for name, data := range cases {
		if _, err := DecompressDelta(data, base); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if !bytes.Equal(good, CompressDelta([]byte("the quick brown cat jumps over the lazy dog"), base)) {
		t.Error("delta compression not deterministic")
	}
}

func flipDeltaByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xff
	return out
}

// FuzzDeltaCodec: round-trip with fuzzed streams, and the decoder
// against fuzzed blobs — must never panic or over-allocate.
func FuzzDeltaCodec(f *testing.F) {
	f.Add([]byte("current frame bytes"), []byte("base frame bytes"))
	f.Add([]byte{}, []byte{})
	f.Add(CompressDelta([]byte("abc"), []byte("abd")), []byte("abd"))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		// a as payload: must round-trip exactly against base b.
		blob := CompressDelta(a, b)
		got, err := DecompressDelta(blob, b)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !bytes.Equal(got, a) {
			t.Fatal("round trip not bit-identical")
		}
		// a as hostile blob against base b: must fail cleanly at worst.
		if cur, err := DecompressDelta(a, b); err == nil && cur == nil && len(a) > 0 {
			t.Fatal("nil reconstruction without error")
		}
	})
}

// refCompressDelta and refDecompressDelta are the codec as it stood
// before the byte-plane rewrite — every word assembled byte by byte into
// a []uint32 plane, the op stream written by refAppendRLEWords (rle_test.go)
// — kept as the oracle the differential tests hold CompressDelta and
// DecompressDelta to, byte for byte and refusal for refusal.
func refCompressDelta(cur, base []byte) []byte {
	nw := (len(cur) + 3) / 4
	words := make([]uint32, nw)
	for i := 0; i < nw; i++ {
		var w uint32
		for k := 0; k < 4; k++ {
			off := 4*i + k
			if off >= len(cur) {
				break
			}
			b := cur[off]
			if off < len(base) {
				b ^= base[off]
			}
			w |= uint32(b) << (8 * k)
		}
		words[i] = w
	}
	out := wire.Begin(make([]byte, 0, len(cur)/8+84), magicDelta, deltaCodecVersion, 4)
	out = wire.U32s(out, uint32(len(cur)), uint32(len(base)), crc32.ChecksumIEEE(cur))
	return refAppendRLEWords(out, words)
}

func refDecompressDelta(data, base []byte) ([]byte, error) {
	rd := wire.Open("render: delta", data, magicDelta, deltaCodecVersion, 4, false)
	curLen, baseLen, wantCRC := int64(rd.U32()), int64(rd.U32()), rd.U32()
	if curLen > maxDeltaLen {
		rd.Fail("implausible target size %d", curLen)
	}
	if baseLen != int64(len(base)) {
		rd.Fail("base is %d bytes, encoder used %d", len(base), baseLen)
	}
	rest := rd.Take(rd.Len())
	nw := (curLen + 3) / 4
	rleBound(&rd, len(rest), nw)
	if err := rd.Err(); err != nil {
		return nil, err
	}
	words := make([]uint32, nw)
	rest, err := refDecodeRLEWords(rest, words)
	if err != nil {
		return nil, fmt.Errorf("render: delta residual: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("render: %d trailing bytes after delta residual", len(rest))
	}
	cur := make([]byte, curLen)
	for i, w := range words {
		for k := 0; k < 4; k++ {
			off := 4*i + k
			if off >= len(cur) {
				break
			}
			b := byte(w >> (8 * k))
			if off < len(base) {
				b ^= base[off]
			}
			cur[off] = b
		}
	}
	if got := crc32.ChecksumIEEE(cur); got != wantCRC {
		return nil, fmt.Errorf("render: delta reconstruction checksum mismatch (computed %08x, want %08x) — wrong base?", got, wantCRC)
	}
	return cur, nil
}

// deltaCodec is a pair under differential test: the shipped functions,
// or a copy of their passes with one fault.
type deltaCodec struct {
	enc func(cur, base []byte) []byte
	dec func(data, base []byte) ([]byte, error)
}

var shippedDelta = deltaCodec{CompressDelta, DecompressDelta}

// deltaDiff holds c to the oracle on one pair of streams: the encoder's
// blob byte-equal, and the decoder's result on the oracle's blob equal
// in bytes and in error text. "" means no difference.
func deltaDiff(c deltaCodec, cur, base []byte) (d string) {
	defer func() {
		if r := recover(); r != nil {
			d = fmt.Sprint("panic: ", r)
		}
	}()
	want := refCompressDelta(cur, base)
	if got := c.enc(cur, base); !bytes.Equal(got, want) {
		return fmt.Sprintf("encoder: %d bytes, want %d; first difference at byte %d", len(got), len(want), firstDiff(got, want))
	}
	return decodeDiff(c, want, base)
}

func decodeDiff(c deltaCodec, blob, base []byte) string {
	want, wantErr := refDecompressDelta(blob, base)
	got, err := c.dec(blob, base)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("decoder: error %v, want %v", err, wantErr)
	}
	if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
		return fmt.Sprintf("decoder: %d bytes, want %d; first difference at byte %d", len(got), len(want), firstDiff(got, want))
	}
	return ""
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

type deltaCase struct {
	name      string
	cur, base []byte
}

// deltaCases is the matrix of the differential test. Every stream is a
// window into a larger noise buffer, so a codec that reads one byte past
// a stream finds plausible bytes there and not a panic. The 1 MiB rows
// come first: the small ones then run on a plane the scratch list has
// recycled from a larger stream.
func deltaCases() []deltaCase {
	rng := rand.New(rand.NewSource(24))
	noise := func(n int) []byte {
		b := make([]byte, n+8)
		rng.Read(b)
		return b[:n]
	}
	var cases []deltaCase
	// streams derives cur from a stream of n bytes by one residual
	// pattern and pairs it with a base of each relative length.
	streams := func(n int, residuals ...string) {
		s := noise(n + 5)
		for i, bl := range []int{0, n / 2, n, n + 5} {
			res := residuals[i%len(residuals)]
			cur := noise(n)
			switch res {
			case "zero":
				copy(cur, s)
			case "sparse":
				copy(cur, s)
				for k := n / 2; k < n; k += 97 {
					cur[k] ^= 0x40
				}
			}
			cases = append(cases, deltaCase{fmt.Sprintf("len %d, base %d, %s residual", n, bl, res), cur, s[:bl]})
		}
	}
	for i, n := range []int{1<<20 - 3, 1<<20 - 2, 1<<20 - 1, 1 << 20, 1<<20 + 1, 1<<20 + 2, 1<<20 + 3} {
		kinds := []string{"zero", "sparse", "dense", "zero", "sparse", "dense"}
		streams(n, kinds[i%3:i%3+4]...)
	}
	for n := 0; n <= 17; n++ {
		streams(n, "zero")
		streams(n, "sparse")
		streams(n, "dense")
	}
	// Residuals written out word by word: literal noise between runs of
	// exactly r equal words, r on both sides of the 128-word literal and
	// the 129-word repeat limits; the run's word zero and not; the last
	// run ending on a tail word of 1 to 4 bytes.
	for _, word := range []uint32{0, 0xdeadbeef, 0xab} {
		for tail := 1; tail <= 4; tail++ {
			var words []uint32
			lits := func(n int) {
				for ; n > 0; n-- {
					words = append(words, rng.Uint32()|1<<31) // never a run word
				}
			}
			for _, r := range []int{1, 2, 128, 129, 130, 258} {
				lits(3)
				for k := 0; k < r; k++ {
					words = append(words, word)
				}
			}
			lits(130)
			for k := 0; k < 5; k++ {
				words = append(words, word)
			}
			n := 4*len(words) - 4 + tail
			base := noise(n)
			cur := noise(n)
			for i := range cur {
				cur[i] = base[i] ^ byte(words[i/4]>>(8*(i%4)))
			}
			if word>>(8*tail) != 0 {
				continue // the padded tail word would not be the run's word
			}
			cases = append(cases, deltaCase{fmt.Sprintf("runs of %#x, %d-byte tail word", word, tail), cur, base})
		}
	}
	return cases
}

// TestDeltaMatchesReference: the byte-plane codec writes the oracle's
// blob and reconstructs the oracle's stream on every row of the matrix.
func TestDeltaMatchesReference(t *testing.T) {
	for _, c := range deltaCases() {
		if d := deltaDiff(shippedDelta, c.cur, c.base); d != "" {
			t.Errorf("%s: %s", c.name, d)
		}
	}
}

// deltaFault names one mistake a rewrite of the codec could make.
type deltaFault int

const (
	noFault            deltaFault = iota
	xorPastOverlap                // the XOR runs one byte beyond min(len(cur), len(base))
	tailNotCleared                // the padding behind cur keeps what a recycled plane held
	literalWrongOffset            // a literal op after the first of a long run copies from the run's start
	scanSkipsHalf                 // the eight-byte run scan compares only the low word
	fillShort                     // the doubling fill of a repeat op stops one word early
)

// faultyDelta is the shipped codec's passes written out once more with
// the faults switchable. With noFault it must be indistinguishable from
// the shipped pair on the matrix — row 0 of the mutant test holds it to
// that.
func faultyDelta(f deltaFault) deltaCodec {
	le := binary.LittleEndian
	enc := func(cur, base []byte) []byte {
		sc := getScratch()
		defer putScratch(sc)
		plane := grow(&sc.plane, (len(cur)+3)&^3)
		n := subtle.XORBytes(plane, cur, base[:min(len(base), len(cur))])
		copy(plane[n:], cur[n:])
		if f != tailNotCleared {
			clear(plane[len(cur):])
		}
		if f == xorPastOverlap && n < len(plane) && n < cap(base) {
			plane[n] ^= base[:n+1][n]
		}
		out := wire.Begin(nil, magicDelta, deltaCodecVersion, 4)
		out = wire.U32s(out, uint32(len(cur)), uint32(len(base)), crc32.ChecksumIEEE(cur))
		for i, n := 0, len(plane); i < n; {
			p := plane[i:]
			for len(p) >= 8 && le.Uint32(p) != le.Uint32(p[4:]) {
				p = p[4:]
			}
			k := n - len(p)
			if len(p) < 8 {
				k = n
			}
			for from := i; i < k; {
				c := min(k-i, 4*128)
				if f != literalWrongOffset {
					from = i
				}
				out = append(append(out, byte(c/4-1)), plane[from:from+c]...)
				i += c
			}
			if i == n {
				break
			}
			w := uint64(le.Uint32(p))
			for p = p[8:]; len(p) >= 8 && (le.Uint64(p) == w|w<<32 || f == scanSkipsHalf && uint64(le.Uint32(p)) == w); {
				p = p[8:]
			}
			if len(p) >= 4 && uint64(le.Uint32(p)) == w {
				p = p[4:]
			}
			for j := n - len(p); j-i >= 8; i += min(j-i, 4*129) {
				out = append(out, byte(0x80|(min(j-i, 4*129)/4-2)), plane[i], plane[i+1], plane[i+2], plane[i+3])
			}
		}
		return out
	}
	// The decoder's passes without their refusals: deltaDiff hands a
	// codec under test only blobs the oracle wrote.
	dec := func(data, base []byte) ([]byte, error) {
		short := 0
		if f == fillShort {
			short = 4
		}
		curLen := int(le.Uint32(data[8:]))
		plane := make([]byte, (curLen+3)&^3)
		for ops, i := data[20:], 0; i < len(plane); {
			n := 4 * (int(ops[0]&0x7f) + 1)
			if ops[0] < 0x80 {
				copy(plane[i:i+n], ops[1:])
				ops = ops[1+n:]
			} else {
				n += 4
				run := plane[i : i+n-short]
				for filled := copy(run, ops[1:5]); filled < len(run); filled *= 2 {
					copy(run[filled:], run[:filled])
				}
				ops = ops[5:]
			}
			i += n
		}
		cur := plane[:curLen:curLen]
		subtle.XORBytes(cur, cur, base[:min(len(base), len(cur))])
		if got, want := crc32.ChecksumIEEE(cur), le.Uint32(data[16:]); got != want {
			return nil, fmt.Errorf("render: delta reconstruction checksum mismatch (computed %08x, want %08x) — wrong base?", got, want)
		}
		return cur, nil
	}
	return deltaCodec{enc, dec}
}

// TestDeltaMutantsFailDifferential seeds the codec with the mistakes a
// rewrite of it could make and demands that the matrix of
// TestDeltaMatchesReference reports each one.
func TestDeltaMutantsFailDifferential(t *testing.T) {
	cases := deltaCases()
	for f, name := range []string{
		noFault:            "unmutated passes",
		xorPastOverlap:     "XOR applied one byte past the overlap",
		tailNotCleared:     "tail padding not cleared on a recycled plane",
		literalWrongOffset: "literal copied from the wrong offset",
		scanSkipsHalf:      "eight-byte run scan stepping over an unequal half",
		fillShort:          "doubling fill one word short",
	} {
		m := faultyDelta(deltaFault(f))
		caught := ""
		for _, c := range cases {
			if f == int(tailNotCleared) {
				// Large, then small, on the same scratch: the plane the
				// mutant borrows still holds the residual of the 1 MiB row.
				CompressDelta(cases[2].cur, cases[2].base)
			}
			if d := deltaDiff(m, c.cur, c.base); d != "" {
				caught = c.name + ": " + d
				break
			}
		}
		switch {
		case f == int(noFault) && caught != "":
			t.Errorf("%s: %s", name, caught)
		case f != int(noFault) && caught == "":
			t.Errorf("mutant %q passed the differential test", name)
		case f != int(noFault):
			t.Logf("mutant %q caught: %s", name, caught)
		}
	}
}

// FuzzDeltaMatchesReference: on fuzzed streams the shipped encoder
// writes the oracle's bytes, and on fuzzed blobs the shipped decoder
// returns the oracle's stream or the oracle's refusal.
func FuzzDeltaMatchesReference(f *testing.F) {
	base := []byte("a base stream the receiver already holds")
	blob := CompressDelta([]byte("a base stream the receiver now holds, changed"), base) // the harness's ACDL row
	f.Add(blob, base)
	f.Add(blob[:len(blob)/2], base)
	f.Add([]byte("current frame bytes"), []byte("base frame bytes"))
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if d := deltaDiff(shippedDelta, a, b); d != "" {
			t.Fatal(d)
		}
		if d := decodeDiff(shippedDelta, a, b); d != "" {
			t.Fatal(d)
		}
	})
}

// scrubPair is a frame and its predecessor as view_fetch scrubs them:
// 1.26 MB, spans of moved words between spans that did not move, the
// moved share 29 % (358 kB of residual in 1.26 MB).
func scrubPair() (cur, base []byte) {
	rng := rand.New(rand.NewSource(29))
	base = make([]byte, 1_260_000)
	rng.Read(base)
	cur = append([]byte(nil), base...)
	for off := 0; off+4000 <= len(cur); off += 4000 {
		rng.Read(cur[off : off+1160])
	}
	return cur, base
}

// TestDeltaAllocates: in steady state CompressDelta allocates the blob
// it returns and DecompressDelta the stream it returns — the plane and
// the op buffer come from the scratch list, and there is no word plane.
func TestDeltaAllocates(t *testing.T) {
	cur, base := scrubPair()
	blob := CompressDelta(cur, base)
	if n := testing.AllocsPerRun(10, func() { CompressDelta(cur, base) }); n != 1 {
		t.Errorf("CompressDelta makes %v allocations a call, want 1", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := DecompressDelta(blob, base); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("DecompressDelta makes %v allocations a call, want 1", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	CompressDelta(cur, base)
	if _, err := DecompressDelta(blob, base); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, want := after.TotalAlloc-before.TotalAlloc, uint64(len(blob)+len(cur)); got > want+want/16 {
		t.Errorf("one encode and one decode allocated %d bytes for a %d-byte blob and a %d-byte stream", got, len(blob), len(cur))
	}
	// A plane beyond pipeline.MaxKeptBytes is not kept for the life of
	// the process: no scratch on the list holds one after the round trip.
	big := make([]byte, pipeline.MaxKeptBytes+1)
	if got, err := DecompressDelta(CompressDelta(big, base), base); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("round trip of a %d-byte stream: %v", len(big), err)
	}
	var held []*flushScratch
	for i := 0; i < 16; i++ {
		sc := getScratch()
		if cap(sc.plane) > pipeline.MaxKeptBytes {
			t.Errorf("the free list kept a %d-byte residual plane, bound %d", cap(sc.plane), pipeline.MaxKeptBytes)
		}
		held = append(held, sc)
	}
	for _, sc := range held {
		putScratch(sc)
	}
}

// BenchmarkDeltaCodec times the residual codec on a view_fetch scrub
// step; MB/s is of the stream, not of the blob.
func BenchmarkDeltaCodec(b *testing.B) {
	cur, base := scrubPair()
	blob := CompressDelta(cur, base)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(cur)))
		for i := 0; i < b.N; i++ {
			CompressDelta(cur, base)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(cur)))
		for i := 0; i < b.N; i++ {
			if _, err := DecompressDelta(blob, base); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestDeltaRefusalsMatchReference: every refusal the oracle makes, the
// byte-plane decoder makes with the same text — one forged blob per
// refusal, each checked to be the refusal it is named for.
func TestDeltaRefusalsMatchReference(t *testing.T) {
	le := binary.LittleEndian
	word := []byte{1, 2, 3, 4}
	// forge is a delta of a 16-byte stream (four words) against no base.
	forge := func(magic string, version, curLen, baseLen, sum uint32, ops ...[]byte) []byte {
		out := le.AppendUint32([]byte(magic), version)
		out = le.AppendUint32(le.AppendUint32(le.AppendUint32(out, curLen), baseLen), sum)
		return append(out, bytes.Join(ops, nil)...)
	}
	sum := crc32.ChecksumIEEE(bytes.Repeat(word, 4))
	for _, c := range []struct {
		refusal string
		blob    []byte
	}{
		{"bad magic", forge("ACDX", 1, 16, 0, sum, []byte{0x82}, word)},
		{"unsupported version", forge("ACDL", 2, 16, 0, sum, []byte{0x82}, word)},
		{"implausible target size", forge("ACDL", 1, maxDeltaLen+1, 0, sum)},
		{"encoder used 7", forge("ACDL", 1, 16, 7, sum, []byte{0x82}, word)},
		{"cannot encode", forge("ACDL", 1, 1<<20, 0, sum, []byte{0x82}, word)},
		{"literal run of 5 overruns plane", forge("ACDL", 1, 16, 0, sum, []byte{0x04}, bytes.Repeat(word, 5))},
		{"repeat run of 5 overruns plane", forge("ACDL", 1, 16, 0, sum, []byte{0x83}, word)},
		{"literal run truncated", forge("ACDL", 1, 16, 0, sum, []byte{0x03}, word, word)},
		{"repeat run truncated", forge("ACDL", 1, 16, 0, sum, []byte{0x82}, word[:2])},
		{"stream ended 1 words short", forge("ACDL", 1, 16, 0, sum, []byte{0x81}, word)},
		{"1 trailing bytes", forge("ACDL", 1, 16, 0, sum, []byte{0x82}, word, []byte{9})},
		{"checksum mismatch", forge("ACDL", 1, 16, 0, sum+1, []byte{0x82}, word)},
	} {
		if _, err := refDecompressDelta(c.blob, nil); err == nil || !strings.Contains(err.Error(), c.refusal) {
			t.Errorf("the %q row is refused with %v", c.refusal, err)
		}
		if d := decodeDiff(shippedDelta, c.blob, nil); d != "" {
			t.Errorf("%s: %s", c.refusal, d)
		}
	}
	if d := decodeDiff(shippedDelta, forge("ACDL", 1, 16, 0, sum, []byte{0x82}, word), nil); d != "" {
		t.Errorf("the unforged blob: %s", d)
	}
}
