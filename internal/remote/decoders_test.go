package remote

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/beam"
	"repro/internal/hybrid"
	"repro/internal/lineio"
	"repro/internal/octree"
	"repro/internal/pario"
	"repro/internal/render"
	"repro/internal/vec"
)

// decoderCase is one row of the harness: a decoder in scope of
// internal/wire, and a valid input for it.
type decoderCase struct {
	name   string
	blob   []byte
	decode func([]byte) error
	sum    bool // the format carries a trailing CRC-32: any flipped byte is caught
	tail   bool // the decoder hands an opaque tail to its caller: trailing bytes are its payload
}

// decoderCases lists every decoder of a blob format or a protocol
// payload. The formats of hybrid, lineio, render and pario are here too
// — one table, one harness — since this package sits above all four.
func decoderCases(t testing.TB) []decoderCase {
	rep := &hybrid.Representation{
		Bounds:    vec.Box(vec.New(0, 0, 0), vec.New(1, 1, 1)),
		Threshold: 0.5, MaxLeafD: 2,
		Points: fixturePoints, PointDensity: []float32{0.1, 1}, OrigIndex: []int64{5, 9},
	}
	var err error
	if rep.Volume, err = hybrid.NewGrid(2, 2, 2, rep.Bounds); err != nil {
		t.Fatal(err)
	}
	fb, err := render.NewFramebuffer(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	copy(fb.Color[20:], []float32{1, 0.5, 0.25, 1})
	fb.Depth[5] = 2.5
	base := []byte("a base stream the receiver already holds")
	header, err := appendComputeHeader(nil, KernelHybridExtract)
	if err != nil {
		t.Fatal(err)
	}
	kernels, err := encodeKernelList(fixtureKernel)
	if err != nil {
		t.Fatal(err)
	}
	// pario's decoders are reached through its file forms: the fixture is
	// written once and read back as bytes, and a candidate blob is
	// decoded by writing it over the file it replaces.
	dir := t.TempDir()
	readBack := func(name string) []byte {
		p, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	put := func(name string, p []byte) {
		if err := os.WriteFile(filepath.Join(dir, name), p, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	frame := beam.Frame{Step: 3, S: 0.5, E: beam.NewEnsemble(2)}
	copy(frame.E.X, []float64{1, -2})
	if err := pario.WriteFrameFile(filepath.Join(dir, "f.acpf"), frame); err != nil {
		t.Fatal(err)
	}
	tree, err := octree.Build(fixturePoints, octree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := pario.WriteTreeFiles(filepath.Join(dir, "t"), tree); err != nil {
		t.Fatal(err)
	}
	acpf, acon, acop := readBack("f.acpf"), readBack("t.oct"), readBack("t.pts")
	readFrame := func(p []byte) error {
		put("f.acpf", p)
		_, err := pario.ReadFrameFile(filepath.Join(dir, "f.acpf"))
		return err
	}
	readTree := func(nodes, pts []byte) error {
		put("t.oct", nodes)
		put("t.pts", pts)
		_, err := pario.ReadTreeFiles(filepath.Join(dir, "t"))
		return err
	}
	return []decoderCase{
		{name: "ACPF", sum: true, blob: acpf, decode: readFrame},
		{name: "ACON", sum: true, blob: acon,
			decode: func(p []byte) error { return readTree(p, acop) }},
		{name: "ACOP", sum: true, blob: acop,
			decode: func(p []byte) error { return readTree(acon, p) }},
		{name: "ACHY", sum: true, blob: rep.AppendBinary(nil),
			decode: func(p []byte) error { _, err := hybrid.DecodeBinary(p); return err }},
		{name: "ACFL", sum: true, blob: lineio.Append(nil, traceLinesFixture()),
			decode: func(p []byte) error { _, err := lineio.Decode(p); return err }},
		{name: "ACPB frame", blob: render.CompressFramebuffer(fb),
			decode: func(p []byte) error { _, err := render.DecompressFramebuffer(p); return err }},
		{name: "ACFQ", blob: render.CompressFramebufferQuantized(fb),
			decode: func(p []byte) error { _, err := render.DecompressFramebufferQuantized(p); return err }},
		{name: "ACDL", blob: render.CompressDelta([]byte("a base stream the receiver now holds, changed"), base),
			decode: func(p []byte) error { _, err := render.DecompressDelta(p, base); return err }},
		{name: "ACPB", blob: render.CompressPartial(fb, 2),
			decode: func(p []byte) error { _, err := render.DecompressPartial(p); return err }},
		{name: "ACPT", sum: true, blob: appendExtractRequest(nil, fixturePoints, fixtureTree, fixtureEcfg),
			decode: func(p []byte) error { _, _, _, err := decodeExtractRequest(p, nil); return err }},
		{name: "ACPR", sum: true, blob: appendRenderPartialRequest(nil, renderRequestFixture()),
			decode: func(p []byte) error { _, err := decodeRenderPartialRequest(p); return err }},
		{name: "Compute header", tail: true, blob: header,
			decode: func(p []byte) error { _, _, err := decodeComputeRequest(p); return err }},
		{name: "ListInfo", blob: encodeListInfo(fixtureList),
			decode: func(p []byte) error { _, err := decodeListInfo(p); return err }},
		{name: "RenderParams", blob: encodeRenderParams(fixtureRender),
			decode: func(p []byte) error { _, err := decodeRenderParams(p); return err }},
		{name: "GetDelta", blob: encodeGetDelta(9, 8),
			decode: func(p []byte) error { _, _, err := decodeGetDelta(p); return err }},
		{name: "Kernel list", blob: kernels,
			decode: func(p []byte) error { _, err := decodeKernelList(p); return err }},
		{name: "StatsReport", blob: encodeStatsReport(statsReportFixture()),
			decode: func(p []byte) error { _, err := decodeStatsReport(p); return err }},
		{name: "Get index", blob: encodeIndex(7),
			decode: func(p []byte) error { _, err := decodeIndex(p); return err }},
		{name: "Notify count", blob: encodeCount(42),
			decode: func(p []byte) error { _, err := decodeCount(p); return err }},
		{name: "Notify-frame header", tail: true, blob: appendNotifyFrameHeader(nil, 42),
			decode: func(p []byte) error { _, err := decodeNotifyFrame(p); return err }},
	}
}

// The fuzz targets — the decoders', and the octree's radix sort — one
// "//fuzz <package> <target>" line each. CI greps these lines and runs
// every target for 3 s; TestFuzzTargetList keeps them equal to the Fuzz
// functions that exist.
//
//fuzz ./internal/hybrid FuzzDecodeBinary
//fuzz ./internal/hybrid FuzzVolumeRoundTrip
//fuzz ./internal/lineio FuzzDecode
//fuzz ./internal/pario FuzzDecodeFrame
//fuzz ./internal/pario FuzzDecodeTree
//fuzz ./internal/render FuzzQuantizedCodec
//fuzz ./internal/render FuzzDeltaCodec
//fuzz ./internal/render FuzzDeltaMatchesReference
//fuzz ./internal/render FuzzPartialFramebuffer
//fuzz ./internal/render FuzzCodecsMatchReference
//fuzz ./internal/remote FuzzReadMessage
//fuzz ./internal/remote FuzzDecodePayloads
//fuzz ./internal/remote FuzzStatsPayload
//fuzz ./internal/remote FuzzComputeFraming
//fuzz ./internal/remote FuzzKernelList
//fuzz ./internal/sortx FuzzPairs

// TestDecodersRejectDamage drives every decoder through the three
// damages a transfer can suffer: every truncation length errors, every
// single flipped byte of a checksummed format is rejected, and one
// trailing byte is rejected — and nothing panics on the way.
func TestDecodersRejectDamage(t *testing.T) {
	for _, c := range decoderCases(t) {
		t.Run(c.name, func(t *testing.T) {
			if err := c.decode(c.blob); err != nil {
				t.Fatalf("the valid blob does not decode: %v", err)
			}
			for n := 0; n < len(c.blob); n++ {
				if c.decode(c.blob[:n:n]) == nil {
					t.Errorf("truncated to %d of %d bytes: decoded without error", n, len(c.blob))
				}
			}
			if c.sum {
				for i := range c.blob {
					if c.decode(flipByte(c.blob, i)) == nil {
						t.Errorf("byte %d flipped: decoded without error", i)
					}
				}
			}
			if grown := append(append([]byte(nil), c.blob...), 0); (c.decode(grown) == nil) != c.tail {
				t.Errorf("one trailing byte: accepted = %v, want %v", !c.tail, c.tail)
			}
		})
	}
}

// forge builds a hostile blob the long way round — no encoder would
// write it: the magic, the version in verBytes bytes, the fields
// (integers and floats little-endian at their own width, []byte raw)
// and, when sum is set, a valid trailing CRC-32.
func forge(magic string, verBytes int, version uint64, sum bool, fields ...any) []byte {
	le := binary.LittleEndian
	out := []byte(magic)
	if verBytes == 8 {
		out = le.AppendUint64(out, version)
	} else if verBytes == 4 {
		out = le.AppendUint32(out, uint32(version))
	}
	for _, f := range fields {
		switch v := f.(type) {
		case uint8:
			out = append(out, v)
		case uint16:
			out = le.AppendUint16(out, v)
		case uint32:
			out = le.AppendUint32(out, v)
		case uint64:
			out = le.AppendUint64(out, v)
		case float64:
			out = le.AppendUint64(out, math.Float64bits(v))
		case []byte:
			out = append(out, v...)
		default:
			panic("forge: unsupported field type")
		}
	}
	if sum {
		out = le.AppendUint32(out, crc32.ChecksumIEEE(out))
	}
	return out
}

// TestHostileHeadersAllocateLittle: a forged input of at most 128
// bytes (141 for ACPR, whose fixed fields alone are 137, and 130 for
// ACHY, whose are 120, behind a 10-byte op stream) — valid magic,
// version and checksum, hostile counts or sizes — is an error, and
// costs under 1 MiB to refuse. Before internal/wire six of these rows
// allocated between 256 MiB and 1.3 GiB; before pario moved onto it the
// ACPF row allocated 8 GiB (and 2³¹ particles killed the process), the
// ACON nodes row 1.3 GiB and the ACOP row 3 GiB — 64, 81 and 24.5 bytes
// an element, measured there at 2²², 2²⁰ and 2²² elements.
func TestHostileHeadersAllocateLittle(t *testing.T) {
	zeros := func(n int) []byte { return make([]byte, n) }
	unit := []any{0.0, 0.0, 0.0, 1.0, 1.0, 1.0} // a unit bounding box
	// achy forges a version-3 frame: dims, point count and op stream
	// length, then the rest (points and ops) as given.
	achy := func(dims [3]uint64, n, opsLen uint64, rest ...any) []byte {
		fields := append(append([]any{}, unit...), 0.5, 2.0, dims[0], dims[1], dims[2], n, opsLen)
		return forge("ACHY", 8, 3, true, append(fields, rest...)...)
	}
	repeat := func(words int) []byte { // ops: one word repeated words times
		var ops []byte
		for ; words > 0; words -= 129 {
			ops = append(ops, 0x80|byte(min(words, 129)-2), 0, 0, 0, 0)
		}
		return ops
	}
	decodeACHY := func(p []byte) error { _, err := hybrid.DecodeBinary(p); return err }
	harness := map[string]func([]byte) error{} // the table's decoders; a tree part is read beside the other, valid, part
	for _, c := range decoderCases(t) {
		harness[c.name] = c.decode
	}
	for _, c := range []struct {
		name   string
		blob   []byte
		decode func([]byte) error
	}{
		{"ACPF 2²⁷ particles", forge("ACPF", 8, 1, true, uint64(7), 0.5, uint64(1<<27)), harness["ACPF"]},
		{"ACON 2²⁴ nodes", forge("ACON", 8, 1, true, append(append([]any{}, unit...), uint64(8), uint64(64), uint64(1<<24))...), harness["ACON"]},
		{"ACON 2²⁴ leaves", forge("ACON", 8, 1, true, append(append([]any{}, unit...), uint64(8), uint64(64), uint64(0), uint64(1<<24))...), harness["ACON"]},
		{"ACOP 2²⁷ points", forge("ACOP", 8, 1, true, uint64(1<<27)), harness["ACOP"]},
		{"ACHY 512³ volume", achy([3]uint64{512, 512, 512}, 0, 0), decodeACHY},
		{"ACHY 512³ volume behind 10 bytes of ops", achy([3]uint64{512, 512, 512}, 0, 10, repeat(258)), decodeACHY},
		{"ACHY 64³ volume behind 10 bytes of ops", achy([3]uint64{64, 64, 64}, 0, 10, repeat(258)), decodeACHY},
		{"ACHY dims whose product overflows", achy([3]uint64{1 << 21, 1 << 21, 1 << 22}, 0, 0), decodeACHY},
		{"ACHY 2²⁷ points", achy([3]uint64{1, 1, 1}, 1<<27, 5, repeat(2)), decodeACHY},
		{"ACHY op stream length past the buffer", achy([3]uint64{2, 2, 2}, 0, 1<<40, repeat(8)), decodeACHY},
		{"ACHY op stream ends short", achy([3]uint64{4, 4, 4}, 0, 5, repeat(63)), decodeACHY},
		{"ACHY op stream overruns the volume", achy([3]uint64{4, 4, 4}, 0, 5, repeat(65)), decodeACHY},
		{"ACHY op stream leaves trailing ops", achy([3]uint64{4, 4, 4}, 0, 8, repeat(64), zeros(3)), decodeACHY},
		{"ACFL 2²⁸ lines", forge("ACFL", 4, 1, true, uint32(1<<28)),
			func(p []byte) error { _, err := lineio.Decode(p); return err }},
		{"ACFL line of 2²⁶ points", forge("ACFL", 4, 1, true, uint32(1), uint32(1<<26), uint8(0)),
			func(p []byte) error { _, err := lineio.Decode(p); return err }},
		{"ACPB 8192×8192", forge("ACPB", 4, 1, false, uint32(8192), uint32(8192), uint32(0),
			uint32(0), uint32(0), uint32(8192), uint32(8192), zeros(64)),
			func(p []byte) error { _, err := render.DecompressFramebuffer(p); return err }},
		{"ACFQ 8192×8192", forge("ACFQ", 4, 1, false, uint32(8192), uint32(8192)),
			func(p []byte) error { _, err := render.DecompressFramebufferQuantized(p); return err }},
		{"ACDL 256 MiB target", forge("ACDL", 4, 1, false, uint32(1<<28), uint32(0), uint32(0)),
			func(p []byte) error { _, err := render.DecompressDelta(p, nil); return err }},
		{"ACPB 2048×2048 rect", forge("ACPB", 4, 1, false, uint32(2048), uint32(2048), uint32(0),
			uint32(0), uint32(0), uint32(2048), uint32(2048), zeros(64)),
			func(p []byte) error { _, err := render.DecompressPartial(p); return err }},
		{"ACPT 2²⁷ points", forge("ACPT", 4, 2, true, zeros(48), uint64(1<<27)),
			func(p []byte) error { _, _, _, err := decodeExtractRequest(p, nil); return err }},
		{"ACPR 2²⁷ points", forge("ACPR", 4, 1, true, uint32(64), uint32(64), zeros(113), uint64(1<<27)),
			func(p []byte) error { _, err := decodeRenderPartialRequest(p); return err }},
		{"Kernel list of 65535", forge("", 0, 0, false, uint16(65535), uint8(1), uint8('k')),
			func(p []byte) error { _, err := decodeKernelList(p); return err }},
		{"Stats with 65535 counters", forge("", 0, 0, false, uint16(65535), zeros(64)),
			func(p []byte) error { _, err := decodeStatsReport(p); return err }},
		{"Stats with 2³²−1 sessions", forge("", 0, 0, false, uint16(0), uint32(math.MaxUint32), zeros(100)),
			func(p []byte) error { _, err := decodeStatsReport(p); return err }},
		{"Stats with 65535 stages", forge("", 0, 0, false, uint16(0), uint32(0), uint16(65535), zeros(100)),
			func(p []byte) error { _, err := decodeStatsReport(p); return err }},
	} {
		t.Run(c.name, func(t *testing.T) {
			limit := 128
			if strings.HasPrefix(c.name, "ACPR") {
				limit = 141
			} else if strings.HasPrefix(c.name, "ACHY") {
				limit = 130
			}
			if len(c.blob) > limit {
				t.Fatalf("the forged input is %d bytes, want at most %d", len(c.blob), limit)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.decode(c.blob)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Error("decoded without error")
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("refusing %d bytes allocated %d bytes (%.0f MiB)", len(c.blob), got, float64(got)/(1<<20))
			}
		})
	}
}

// TestStatsCounterCountIsExact: a Stats payload whose counter table is
// one entry short or one too long is refused, and so are protocol v8's
// 14-counter table and one longer still. The handshake is exact-match, so no peer sends one;
// a decoder that read it anyway would hand the caller counters in the
// wrong fields or none at all.
func TestStatsCounterCountIsExact(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
	}{
		{"Stats with 11 counters", numStats - 1},
		{"Stats with 13 counters", numStats + 1},
		{"Stats with 14 counters", 14},
		{"Stats with 15 counters", 15},
	} {
		t.Run(c.name, func(t *testing.T) {
			blob := forge("", 0, 0, false, uint16(c.n), make([]byte, 8*c.n), uint32(0), uint16(0))
			if _, err := decodeStatsReport(blob); err == nil {
				t.Errorf("%d counters (want %d): decoded without error", c.n, numStats)
			}
		})
	}
}

// seedFrom adds the harness table's blob for the named decoder, whole
// and cut in half, to a fuzz corpus.
func seedFrom(f *testing.F, name string) {
	for _, c := range decoderCases(f) {
		if c.name == name {
			f.Add(c.blob)
			f.Add(c.blob[:len(c.blob)/2])
			return
		}
	}
	f.Fatalf("no decoder case %q", name)
}

// FuzzKernelList covers a decoder that was reached only through
// well-formed round trips: it may not panic or over-allocate.
func FuzzKernelList(f *testing.F) {
	seedFrom(f, "Kernel list")
	f.Add([]byte{0xff, 0xff, 1, 'k'})
	f.Fuzz(func(t *testing.T, data []byte) { _, _ = decodeKernelList(data) })
}

// TestFuzzTargetList: the //fuzz lines above name exactly the Fuzz
// functions of the five packages whose decoders the harness covers and
// of sortx, so a new target cannot be left out of CI and a renamed one
// cannot linger.
func TestFuzzTargetList(t *testing.T) {
	src, err := os.ReadFile("decoders_test.go")
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, line := range strings.Split(string(src), "\n") {
		if rest, ok := strings.CutPrefix(line, "//fuzz "); ok {
			listed = append(listed, rest)
		}
	}
	var found []string
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(f \*testing\.F\)`)
	for _, pkg := range []string{"hybrid", "lineio", "pario", "render", "remote", "sortx"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			text, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range fuzzFunc.FindAllSubmatch(text, -1) {
				found = append(found, "./internal/"+pkg+" "+string(m[1]))
			}
		}
	}
	sort.Strings(listed)
	sort.Strings(found)
	if strings.Join(listed, "\n") != strings.Join(found, "\n") {
		t.Errorf("the //fuzz list and the Fuzz functions differ:\nlisted:\n%s\nfound:\n%s",
			strings.Join(listed, "\n"), strings.Join(found, "\n"))
	}
}
