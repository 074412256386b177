package wire

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/vec"
)

var testMagic = [4]byte{'T', 'E', 'S', 'T'}

// blob is a small enveloped encoding touching every appender.
func blob(verBytes int) []byte {
	dst := []byte("prefix")
	start := len(dst)
	dst = Begin(dst, testMagic, 3, verBytes)
	dst = U8(dst, 0xab)
	dst = U16(dst, 0xbeef)
	dst = U32(dst, 0xdeadbeef)
	dst = U64(dst, 1<<63|5)
	dst = I64(dst, -7)
	dst = Bool(dst, true)
	dst = Flags(dst, true, false, true, true)
	dst = Str8(dst, "héllo")
	dst = U32s(dst, 1, math.MaxUint32)
	dst = U64s(dst, 2, math.MaxUint64)
	dst = F64s(dst, math.Pi, math.Inf(-1))
	dst = F32s(dst, 0.5, -2)
	dst = I64s(dst, math.MinInt64, 9)
	dst = V3s(dst, vec.New(1, 2, 3), vec.New(-4, 5e-9, 6))
	return Finish(dst, start)[start:]
}

func TestRoundTrip(t *testing.T) {
	for _, verBytes := range []int{4, 8} {
		p := blob(verBytes)
		rd := Open("test: blob", p, testMagic, 3, verBytes, true)
		if got := rd.U8(); got != 0xab {
			t.Errorf("U8 = %#x", got)
		}
		if got := rd.U16(); got != 0xbeef {
			t.Errorf("U16 = %#x", got)
		}
		if got := rd.U32(); got != 0xdeadbeef {
			t.Errorf("U32 = %#x", got)
		}
		if got := rd.U64(); got != 1<<63|5 {
			t.Errorf("U64 = %#x", got)
		}
		if got := rd.I64(); got != -7 {
			t.Errorf("I64 = %d", got)
		}
		if !rd.Bool() {
			t.Error("Bool = false")
		}
		var a, b, c, d, e bool
		if rd.Flags(&a, &b, &c, &d, &e); !a || b || !c || !d || e {
			t.Errorf("Flags = %v %v %v %v %v", a, b, c, d, e)
		}
		if got := rd.Str8(); got != "héllo" {
			t.Errorf("Str8 = %q", got)
		}
		if a, b, c, d := rd.U32(), rd.U32(), rd.U64(), rd.U64(); a != 1 || b != math.MaxUint32 || c != 2 || d != math.MaxUint64 {
			t.Errorf("U32s, U64s = %d %d %d %d", a, b, c, d)
		}
		var f64 [2]float64
		if rd.F64s(f64[:]); f64 != [2]float64{math.Pi, math.Inf(-1)} {
			t.Errorf("F64s = %v", f64)
		}
		var f32 [2]float32
		if rd.F32s(f32[:]); f32 != [2]float32{0.5, -2} {
			t.Errorf("F32s = %v", f32)
		}
		var i64 [2]int64
		if rd.I64s(i64[:]); i64 != [2]int64{math.MinInt64, 9} {
			t.Errorf("I64s = %v", i64)
		}
		if got := rd.V3(); got != vec.New(1, 2, 3) {
			t.Errorf("V3 = %v", got)
		}
		var v [1]vec.V3
		if rd.V3s(v[:]); v[0] != vec.New(-4, 5e-9, 6) {
			t.Errorf("V3s = %v", v)
		}
		if err := rd.Done(); err != nil {
			t.Errorf("verBytes %d: %v", verBytes, err)
		}
	}
	if a, b := blob(4), blob(8); len(b) != len(a)+4 {
		t.Errorf("an 8-byte version word adds %d bytes, want 4", len(b)-len(a))
	}
}

func TestOpenRejects(t *testing.T) {
	good := blob(4)
	flip := func(i int) []byte {
		out := append([]byte(nil), good...)
		out[i] ^= 0xff
		return out
	}
	for name, c := range map[string]struct {
		p    []byte
		want string
	}{
		"empty":            {nil, "truncated"},
		"shorter than crc": {good[:3], "truncated"},
		"crc only":         {good[len(good)-4:], "truncated"},
		"no room for crc":  {good[:8], "truncated"},
		"bad magic":        {flip(0), "bad magic"},
		"bad version":      {flip(4), "unsupported version"},
		"flipped field":    {flip(9), "checksum mismatch"},
		"flipped crc":      {flip(len(good) - 1), "checksum mismatch"},
		"one byte short":   {good[:len(good)-1], "checksum mismatch"},
	} {
		rd := Open("test: blob", c.p, testMagic, 3, 4, true)
		if err := rd.Err(); err == nil || !strings.Contains(err.Error(), c.want) || !strings.HasPrefix(err.Error(), "test: blob: ") {
			t.Errorf("%s: error %v, want \"test: blob: …%s…\"", name, err, c.want)
		}
		if rd.Len() != 0 || rd.U32() != 0 {
			t.Errorf("%s: a failed reader still yields bytes", name)
		}
	}
	// Without a checksum the same bytes open, CRC and all, as fields.
	rd := Open("test: blob", good, testMagic, 3, 4, false)
	if rd.Err() != nil || rd.Len() != len(good)-8 {
		t.Errorf("sum=false: err %v, %d bytes left, want %d", rd.Err(), rd.Len(), len(good)-8)
	}
}

func TestStickyFirstError(t *testing.T) {
	rd := NewReader("test: payload", []byte{1, 2, 3})
	if rd.U16() != 0x0201 || rd.Err() != nil {
		t.Fatal("first read failed")
	}
	if rd.U32() != 0 {
		t.Error("a read past the end returned data")
	}
	first := rd.Err()
	if first == nil || !strings.Contains(first.Error(), "truncated (4 bytes wanted, 1 left)") {
		t.Fatalf("error %v", first)
	}
	// Everything after the failure is zero and leaves the error alone —
	// including reads that would have fitted.
	rd.Fail("later validation")
	dst := []float64{7}
	rd.F64s(dst)
	if rd.U8() != 0 || rd.Str8() != "" || rd.Count(0, 1) != 0 || rd.Take(0) != nil || dst[0] != 7 {
		t.Error("a failed reader produced a value")
	}
	if rd.Err() != first || rd.Done() != first {
		t.Errorf("first error replaced: %v", rd.Err())
	}
}

func TestCount(t *testing.T) {
	for name, c := range map[string]struct {
		n         int64
		elemBytes int
		want      int
		fails     bool
	}{
		"zero":              {0, 8, 0, false},
		"exactly fitting":   {4, 6, 4, false},
		"one too many":      {5, 6, 0, true},
		"negative":          {-1, 1, 0, true},
		"overflows int64":   {math.MaxInt64/24 + 1, 24, 0, true},
		"max int64":         {math.MaxInt64, 8, 0, true},
		"zero element size": {1, 0, 0, true},
	} {
		rd := NewReader("test: payload", make([]byte, 24))
		if got := rd.Count(c.n, c.elemBytes); got != c.want || (rd.Err() != nil) != c.fails {
			t.Errorf("%s: Count(%d, %d) = %d, err %v", name, c.n, c.elemBytes, got, rd.Err())
		}
	}
}

func TestTakeAndDone(t *testing.T) {
	p := []byte{1, 2, 3, 4, 5}
	rd := NewReader("test: payload", p)
	w := rd.Take(2)
	if !bytes.Equal(w, p[:2]) || cap(w) != 2 || rd.Len() != 3 {
		t.Errorf("Take(2) = %v (cap %d), %d left", w, cap(w), rd.Len())
	}
	if err := rd.Done(); err == nil || !strings.Contains(err.Error(), "3 trailing bytes") {
		t.Errorf("Done with bytes left: %v", err)
	}
	rd = NewReader("test: payload", p)
	if rd.Take(6) != nil || rd.Err() == nil {
		t.Error("Take past the end succeeded")
	}
	rd = NewReader("test: payload", p)
	if rd.Take(-1) != nil || rd.Err() == nil {
		t.Error("Take(-1) succeeded")
	}
	rd = NewReader("test: payload", p)
	if rd.Take(5) == nil || rd.Done() != nil {
		t.Errorf("Take of everything: %v", rd.Err())
	}
}

func TestFlagsAndStr8(t *testing.T) {
	if got := Flags(nil, false, true, false, false, false, false, false, true); !bytes.Equal(got, []byte{0x82}) {
		t.Errorf("Flags = %#x, want 0x82", got)
	}
	if got := Bool(Bool(nil, false), true); !bytes.Equal(got, []byte{0, 1}) {
		t.Errorf("Bool = %v", got)
	}
	long := strings.Repeat("x", 300)
	enc := Str8(nil, long)
	if len(enc) != 256 || enc[0] != 255 {
		t.Fatalf("Str8 of 300 bytes encodes %d bytes, length byte %d", len(enc), enc[0])
	}
	rd := NewReader("test: payload", enc)
	if got := rd.Str8(); got != long[:255] || rd.Done() != nil {
		t.Errorf("Str8 round trip lost the cut string (%d bytes, err %v)", len(got), rd.Err())
	}
	rd = NewReader("test: payload", []byte{5, 'a', 'b'})
	if rd.Str8() != "" || rd.Err() == nil {
		t.Error("a string longer than the input decoded")
	}
	rd = NewReader("test: payload", Str8(nil, ""))
	if rd.Str8() != "" || rd.Done() != nil {
		t.Errorf("empty string round trip: %v", rd.Err())
	}
}

func TestGrow(t *testing.T) {
	dst := append(make([]byte, 0, 8), "abc"...)
	if g := Grow(dst, 5); &g[0] != &dst[0] {
		t.Error("Grow reallocated a buffer with room")
	}
	g := Grow(dst, 6)
	if string(g) != "abc" || cap(g) < 9 {
		t.Errorf("Grow(…, 6) = %q, cap %d", g, cap(g))
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = V3s(Grow(nil, 48), vec.New(1, 2, 3), vec.New(4, 5, 6)) }); allocs != 1 {
		t.Errorf("an encode into a grown buffer made %v allocations, want 1", allocs)
	}
}

// TestReaderStaysOnTheStack pins the package doc's claim: decoding
// through a Reader value allocates nothing beyond what the caller makes.
func TestReaderStaysOnTheStack(t *testing.T) {
	p := blob(4)
	var sink uint64
	allocs := testing.AllocsPerRun(10, func() {
		rd := Open("test: blob", p, testMagic, 3, 4, true)
		sink += uint64(rd.U8()) + uint64(rd.U16()) + uint64(rd.U32()) + rd.U64()
		if rd.Err() != nil {
			t.Fatal(rd.Err())
		}
	})
	if allocs != 0 {
		t.Errorf("a decode made %v allocations, want 0", allocs)
	}
}

// TestBulkReadsEveryLength: the bulk reads decode four elements a step
// and the remainder one by one; every length on both sides of a step
// must read back what the bulk appends wrote, bit for bit, and leave
// the reader at the next field.
func TestBulkReadsEveryLength(t *testing.T) {
	for n := 0; n <= 13; n++ {
		f64, f32, i64, v3 := make([]float64, n), make([]float32, n), make([]int64, n), make([]vec.V3, n)
		for i := 0; i < n; i++ {
			f64[i] = math.Float64frombits(0x7ff8_0000_0000_0001 + uint64(i)<<40) // NaNs: the payload must survive
			f32[i] = math.Float32frombits(0x7fc0_0001 + uint32(i)<<8)
			i64[i] = int64(i) - 1<<62
			v3[i] = vec.New(float64(i), -float64(i)/3, math.Inf(i%2-1))
		}
		p := U8(V3s(I64s(F32s(F64s(nil, f64...), f32...), i64...), v3...), 0x5a)
		rd := NewReader("test: bulk", p)
		gf64, gf32, gi64, gv3 := make([]float64, n), make([]float32, n), make([]int64, n), make([]vec.V3, n)
		rd.F64s(gf64)
		rd.F32s(gf32)
		rd.I64s(gi64)
		rd.V3s(gv3)
		if end := rd.U8(); end != 0x5a || rd.Done() != nil {
			t.Fatalf("n=%d: the reader ended on %#x, err %v", n, end, rd.Done())
		}
		if q := U8(V3s(I64s(F32s(F64s(nil, gf64...), gf32...), gi64...), gv3...), 0x5a); !bytes.Equal(p, q) {
			t.Errorf("n=%d: the bulk reads changed the values:\n got %x\nwant %x", n, q, p)
		}
	}
}

// BenchmarkBulkDecode times the bulk reads on in-cache arrays the size
// of a benchmark frame's: the decode of every .achy, .acpf and point
// payload is these loops.
func BenchmarkBulkDecode(b *testing.B) {
	const n = 1 << 16
	b.Run("f32", func(b *testing.B) {
		p, dst := F32s(nil, make([]float32, n)...), make([]float32, n)
		b.SetBytes(int64(len(p)))
		for i := 0; i < b.N; i++ {
			rd := NewReader("bench", p)
			rd.F32s(dst)
		}
	})
	b.Run("f64", func(b *testing.B) {
		p, dst := F64s(nil, make([]float64, n)...), make([]float64, n)
		b.SetBytes(int64(len(p)))
		for i := 0; i < b.N; i++ {
			rd := NewReader("bench", p)
			rd.F64s(dst)
		}
	})
	b.Run("v3", func(b *testing.B) {
		p, dst := V3s(nil, make([]vec.V3, n/2)...), make([]vec.V3, n/2)
		b.SetBytes(int64(len(p)))
		for i := 0; i < b.N; i++ {
			rd := NewReader("bench", p)
			rd.V3s(dst)
		}
	})
}
