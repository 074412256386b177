package remote

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/fieldline"
	"repro/internal/hybrid"
	"repro/internal/octree"
	"repro/internal/vec"
)

// Fixtures for TestFormatsUnchanged (and, as valid blobs, for the
// decoder harness in decoders_test.go). Every field is nonzero and
// distinct so that a swapped or dropped field changes the bytes.
var (
	fixturePoints = []vec.V3{vec.New(1, 2, 3), vec.New(-0.5, 0.25, 1e-3)}
	fixtureTree   = octree.Config{MaxLevel: 7, LeafCap: 48, Workers: 2, Pad: 0.01}
	fixtureEcfg   = hybrid.ExtractConfig{VolumeRes: 16, Threshold: 0.375, Budget: 1 << 35, Workers: 3}
	// Three names, one of a kernel no worker hosts any more: a kernel
	// list is strings on the wire, and its recorded bytes stand.
	fixtureKernel = []string{"fieldline.trace.v1", KernelHybridExtract, KernelRenderPartial}
	fixtureList   = ListInfo{Frames: 41, First: 33, Live: true}
	fixtureRender = RenderParams{Frame: 3, Width: 320, Height: 200,
		ViewDir: vec.New(0.4, 0.3, 1), VolumeOpacity: 0.75, LogDomainK: 50, Quality: QualityPreview}
	fixtureError = &WireError{Code: ErrCodeUnknownKernel, Msg: "remote: no kernel"}
)

func traceLinesFixture() []*fieldline.Line {
	return []*fieldline.Line{
		{
			Points:    []vec.V3{vec.New(0, 0, 0), vec.New(0.5, 0.25, -1)},
			Tangents:  []vec.V3{vec.New(0, 0, 1), vec.New(0.6, 0, 0.8)},
			Strengths: []float64{1, 0.5},
			Closed:    true,
		},
		{Points: []vec.V3{}, Tangents: []vec.V3{}, Strengths: []float64{}},
		{Points: []vec.V3{vec.New(-3, 2, 8)}, Tangents: []vec.V3{vec.New(1, 0, 0)}, Strengths: []float64{4}},
	}
}

func renderRequestFixture() *RenderPartialRequest {
	return &RenderPartialRequest{
		Width: 72, Height: 64, Seq: 3, Offset: 1 << 33,
		ViewDir: vec.New(0.4, 0.3, 1), PointScale: 1.5, Opaque: true,
		Bounds:    vec.Box(vec.New(-1, -2, -3), vec.New(4, 5, 6)),
		Threshold: 0.375, MaxLeafD: 12.5,
		Points: fixturePoints, Density: []float32{0.1, 1},
	}
}

// statsReportFixture is a fully populated report: every counter, every
// session flag combination and a three-stage pipeline table.
func statsReportFixture() StatsReport {
	r := statsFixture()
	r.Pipeline = pipelineStatsFixture()
	return r
}

// The fixtures as the hand-rolled codecs encoded them at the commit
// before they moved onto internal/wire (the Stats report as protocol v8
// encodes it).
const (
	acptRecorded = "4143505401000000070000000000000030000000000000000200000000000000" +
		"7b14ae47e17a843f1000000000000000000000000000d83f0000000008000000" +
		"03000000000000000200000000000000000000000000f03f0000000000000040" +
		"0000000000000840000000000000e0bf000000000000d03ffca9f1d24d62503f" +
		"5c95db00" // 132 bytes in all
	acprRecorded = "414350520100000048000000400000000300000000000000020000009a999999" +
		"9999d93f333333333333d33f000000000000f03f000000000000f83f01000000" +
		"000000f0bf00000000000000c000000000000008c00000000000001040000000" +
		"00000014400000000000001840000000000000d83f0000000000002940020000" +
		"0000000000000000000000f03f00000000000000400000000000000840000000" +
		"000000e0bf000000000000d03ffca9f1d24d62503fcdcccc3d0000803f541c39" +
		"83" // 193 bytes in all
	computeHeaderRecorded = "116879627269642e657874726163742e7631" // 18 bytes
	listInfoRecorded      = "2900000000000000210000000000000001"   // 17 bytes
	renderParamsRecorded  = "0300000040010000c80000009a9999999999d93f333333333333d33f00000000" +
		"0000f03f000000000000e83f000000000000494001" // 53 bytes in all
	getDeltaRecorded   = "0900000008000000" // 8 bytes
	kernelListRecorded = "0300126669656c646c696e652e74726163652e7631116879627269642e657874" +
		"726163742e76311172656e6465722e7061727469616c2e7631" // 57 bytes in all
	statsReportRecorded = "0e00010000000000000002000000000000000300000000000000040000000000" +
		"0000050000000000000006000000000000000700000000000000080000000000" +
		"000009000000000000000a000000000000000b000000000000000c0000000000" +
		"00000d000000000000000e000000000000000300000001000000000000000303" +
		"0000000800000002000000000000000100000000000000280000000000000029" +
		"000000000000000e31302e302e302e313a353132333402000000000000000400" +
		"0000000000000000000000000000000000000000000000000000000000000000" +
		"000000000000000e31302e302e302e323a353132333503000000000000000000" +
		"0000000000000000000000000000000000000000000000000000000000000000" +
		"0000000000000000030000000100000000000000290000000000000000000000" +
		"0000000080b2e60e000000000000000000806440000000000000000000000000" +
		"000000001f85eb51b81eed3f06736f7572636501010300000004000000250000" +
		"000000000000d430000000000080b2e60e0000000000000000008062400ad7a3" +
		"703d0aef3f7b14ae47e17a843f7b14ae47e17a943f0765787472616374020201" +
		"00000000000000210000000000000040420f0000000000000000000000000000" +
		"0000000000000000000000000000000000000000000000000000000000000007" +
		"7075626c697368" // 519 bytes in all
	wireErrorRecorded = "0372656d6f74653a206e6f206b65726e656c" // 18 bytes
)

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFormatsUnchanged holds every kernel blob and protocol payload to
// bytes recorded from the codecs this package had before internal/wire,
// and decodes those bytes back to the fixture. The one exception is the
// Stats report, re-recorded for protocol v8 when the stage record lost
// the balancer's columns; its counters and sessions kept their bytes.
func TestFormatsUnchanged(t *testing.T) {
	if protoVersion != 8 {
		t.Errorf("protoVersion = %d; a format change needs new recorded bytes as well", protoVersion)
	}
	header, err := appendComputeHeader(nil, KernelHybridExtract)
	if err != nil {
		t.Fatal(err)
	}
	kernels, err := encodeKernelList(fixtureKernel)
	if err != nil {
		t.Fatal(err)
	}
	same := func(t *testing.T, err error, got, want any) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("decoded\n got %+v\nwant %+v", got, want)
		}
	}
	for _, c := range []struct {
		name     string
		recorded string
		encoded  []byte
		check    func(t *testing.T, blob []byte)
	}{
		{"ACPT", acptRecorded, appendExtractRequest(nil, fixturePoints, fixtureTree, fixtureEcfg), func(t *testing.T, blob []byte) {
			pts, tcfg, ecfg, err := decodeExtractRequest(blob, nil)
			same(t, err, []any{pts, tcfg, ecfg}, []any{fixturePoints, fixtureTree, fixtureEcfg})
		}},
		{"ACPR", acprRecorded, appendRenderPartialRequest([]byte("xy"), renderRequestFixture())[2:], func(t *testing.T, blob []byte) {
			req, err := decodeRenderPartialRequest(blob)
			same(t, err, req, renderRequestFixture())
		}},
		{"Compute header", computeHeaderRecorded, header, func(t *testing.T, blob []byte) {
			kernel, rest, err := decodeComputeRequest(append(blob, "blob"...))
			same(t, err, []any{kernel, string(rest)}, []any{KernelHybridExtract, "blob"})
		}},
		{"ListInfo", listInfoRecorded, encodeListInfo(fixtureList), func(t *testing.T, blob []byte) {
			li, err := decodeListInfo(blob)
			same(t, err, li, fixtureList)
		}},
		{"RenderParams", renderParamsRecorded, encodeRenderParams(fixtureRender), func(t *testing.T, blob []byte) {
			rp, err := decodeRenderParams(blob)
			same(t, err, rp, fixtureRender)
		}},
		{"GetDelta", getDeltaRecorded, encodeGetDelta(9, 8), func(t *testing.T, blob []byte) {
			frame, base, err := decodeGetDelta(blob)
			same(t, err, []int{frame, base}, []int{9, 8})
		}},
		{"Kernel list", kernelListRecorded, kernels, func(t *testing.T, blob []byte) {
			names, err := decodeKernelList(blob)
			same(t, err, names, fixtureKernel)
		}},
		{"StatsReport", statsReportRecorded, encodeStatsReport(statsReportFixture()), func(t *testing.T, blob []byte) {
			r, err := decodeStatsReport(blob)
			same(t, err, r, statsReportFixture())
		}},
		{"WireError", wireErrorRecorded, encodeWireError(fixtureError), func(t *testing.T, blob []byte) {
			same(t, nil, decodeWireError(blob), fixtureError)
		}},
		// The three payloads too small to have had a codec of their own:
		// written inline before, so their bytes are spelled out here.
		{"Get index", "ffffffff", encodeIndex(-1), func(t *testing.T, blob []byte) {
			i, err := decodeIndex(blob)
			same(t, err, i, -1)
		}},
		{"Notify count", "2a00000000000000", encodeCount(42), func(t *testing.T, blob []byte) {
			n, err := decodeCount(blob)
			same(t, err, n, 42)
		}},
		{"Notify-frame header", "2a00000000000000" + "29000000", appendNotifyFrameHeader(nil, 42), func(t *testing.T, blob []byte) {
			u, err := decodeNotifyFrame(append(blob, "ACHY…"...))
			same(t, err, u, FrameUpdate{Frames: 42, Index: 41, Payload: []byte("ACHY…")})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := unhex(t, c.recorded)
			if !bytes.Equal(c.encoded, want) {
				t.Errorf("the encoder changed the bytes:\n got %x\nwant %x", c.encoded, want)
			}
			c.check(t, want)
		})
	}
}

// TestEncodersReserveExactly: the kernel request encoders reserve their
// exact size up front. A request goes out in a pooled buffer that the
// last frame's request of the same size left behind; reserving a byte
// more reallocates it every frame, a byte less lets append double it.
func TestEncodersReserveExactly(t *testing.T) {
	for name, out := range map[string][]byte{
		"ACPT": appendExtractRequest(nil, fixturePoints, fixtureTree, fixtureEcfg),
		"ACPR": appendRenderPartialRequest(nil, renderRequestFixture()),
	} {
		if cap(out) != len(out) {
			t.Errorf("%s: encoded %d bytes into a buffer grown to %d", name, len(out), cap(out))
		}
	}
}
