package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hybrid"
	"repro/internal/octree"
	"repro/internal/vec"
)

// frame builds a raw protocol frame with an arbitrary (possibly bogus)
// CRC and length, for malformed-input tests.
func rawFrame(lenField uint32, body []byte, crc uint32) []byte {
	out := binary.LittleEndian.AppendUint32(nil, lenField)
	out = append(out, body...)
	return binary.LittleEndian.AppendUint32(out, crc)
}

func goodBody(reqID uint64, op byte, payload []byte) []byte {
	body := binary.LittleEndian.AppendUint64(nil, reqID)
	body = append(body, op)
	return append(body, payload...)
}

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	payload := []byte("hello frames")
	if err := writeMessage(bw, 7, opGet, payload); err != nil {
		t.Fatal(err)
	}
	msg, err := readMessage(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if msg.reqID != 7 || msg.op != opGet || !bytes.Equal(msg.payload, payload) {
		t.Errorf("round trip mangled message: %+v", msg)
	}
	// Empty payload too.
	if err := writeMessage(bw, 8, opList, nil); err != nil {
		t.Fatal(err)
	}
	msg, err = readMessage(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if msg.reqID != 8 || msg.op != opList || len(msg.payload) != 0 {
		t.Errorf("empty-payload round trip mangled: %+v", msg)
	}
}

// TestDecodeMalformedMessages feeds the decoder every class of
// corruption the satellite task names: truncated headers and bodies,
// oversized lengths, checksum damage. Every case must error cleanly —
// no panic, no hang, no partial message.
func TestDecodeMalformedMessages(t *testing.T) {
	body := goodBody(1, opList, nil)
	good := rawFrame(uint32(len(body)), body, crc32.ChecksumIEEE(body))

	cases := map[string][]byte{
		"empty":                {},
		"truncated length":     good[:2],
		"length only":          good[:4],
		"truncated body":       good[:4+5],
		"missing crc":          good[:len(good)-4],
		"truncated crc":        good[:len(good)-2],
		"length below header":  rawFrame(3, []byte{1, 2, 3}, 0),
		"zero length":          rawFrame(0, nil, 0),
		"oversized length":     rawFrame(maxBody+1, body, crc32.ChecksumIEEE(body)),
		"crc mismatch":         rawFrame(uint32(len(body)), body, crc32.ChecksumIEEE(body)^0xdeadbeef),
		"flipped payload byte": flipByte(good, 8),
	}
	for name, data := range cases {
		if _, err := readMessage(bytes.NewReader(data), 0); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xff
	return out
}

func FuzzReadMessage(f *testing.F) {
	body := goodBody(3, opGet, []byte{1, 2, 3, 4})
	f.Add(rawFrame(uint32(len(body)), body, crc32.ChecksumIEEE(body)))
	f.Add([]byte("ACVP\x01\x00\x00\x00"))
	f.Add(make([]byte, 64))
	// v5 frames: a heartbeat and a stats response.
	ping := goodBody(0, opPing, nil)
	f.Add(rawFrame(uint32(len(ping)), ping, crc32.ChecksumIEEE(ping)))
	stats := goodBody(4, opStats|replyBit, encodeStatsReport(statsFixture()))
	f.Add(rawFrame(uint32(len(stats)), stats, crc32.ChecksumIEEE(stats)))
	// v6 frame: a Compute carrying the partial-render kernel's blob.
	rreq, err := appendComputeHeader(nil, KernelRenderPartial)
	if err != nil {
		f.Fatal(err)
	}
	rreq = appendRenderPartialRequest(rreq, &RenderPartialRequest{
		Width: 8, Height: 8, ViewDir: vec.New(0, 0, 1), PointScale: 1,
		Bounds:    vec.Box(vec.New(0, 0, 0), vec.New(1, 1, 1)),
		Threshold: 0.1, MaxLeafD: 0.5,
		Points: []vec.V3{vec.New(0.5, 0.5, 0.5)}, Density: []float32{0.3},
	})
	compute := goodBody(5, opCompute, rreq)
	f.Add(rawFrame(uint32(len(compute)), compute, crc32.ChecksumIEEE(compute)))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic and never over-allocate on hostile lengths.
		_, _ = readMessage(bytes.NewReader(data), 0)
	})
}

func FuzzDecodePayloads(f *testing.F) {
	f.Add(encodeListInfo(ListInfo{Frames: 4, First: 1, Live: true}))
	f.Add(encodeRenderParams(RenderParams{Frame: 1, Width: 64, Height: 64}))
	// v3 payloads: quality-tiered render params and GetDelta requests.
	f.Add(encodeRenderParams(RenderParams{Frame: 1, Width: 64, Height: 64, Quality: QualityPreview}))
	f.Add(encodeRenderParams(RenderParams{})[:52]) // cut before the quality byte: refused
	f.Add(encodeGetDelta(7, 6))
	// v6 payload: the partial-render kernel's request blob.
	f.Add(appendRenderPartialRequest(nil, &RenderPartialRequest{
		Width: 8, Height: 8, ViewDir: vec.New(0, 0, 1), PointScale: 1,
		Bounds:    vec.Box(vec.New(0, 0, 0), vec.New(1, 1, 1)),
		Threshold: 0.1, MaxLeafD: 0.5,
		Points: []vec.V3{vec.New(0.5, 0.5, 0.5)}, Density: []float32{0.3},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeListInfo(data)
		_, _ = decodeRenderParams(data)
		_, _, _ = decodeGetDelta(data)
		_, _ = decodeRenderPartialRequest(data)
	})
}

// statsFixture is a fully-populated report for the round-trip test and
// the fuzzer's seed corpus: every counter nonzero, every session flag
// combination, and a remote string long enough to exercise the length
// byte.
func statsFixture() StatsReport {
	return StatsReport{
		Stats: ServiceStats{
			FrameEncodes: 1, FrameHits: 2, Renders: 3, RenderHits: 4,
			DeltaEncodes: 5, DeltaHits: 6, NotifyFrames: 7, NotifyCounts: 8,
			Pings: 9, SessionsRefused: 10, RendersRefused: 11,
			PushesDropped: 12, PushesDegraded: 13, SessionsEvicted: 14,
		},
		Sessions: []SessionStats{
			{ID: 1, Remote: "10.0.0.1:51234", Subscribed: true, Inline: true,
				QueueDepth: 3, QueueCap: 8, Dropped: 2, Degraded: 1, Sent: 40, LastSent: 41},
			{ID: 2, Remote: "10.0.0.2:51235", Refused: true},
			{ID: 3, Remote: ""},
		},
	}
}

// TestStatsReportRoundTrip pins the v5 Stats codec: every counter,
// every session field and every flag survives encode/decode exactly.
func TestStatsReportRoundTrip(t *testing.T) {
	in := statsFixture()
	out, err := decodeStatsReport(encodeStatsReport(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats != in.Stats {
		t.Errorf("counters mangled:\n got %+v\nwant %+v", out.Stats, in.Stats)
	}
	if len(out.Sessions) != len(in.Sessions) {
		t.Fatalf("session count %d, want %d", len(out.Sessions), len(in.Sessions))
	}
	for i := range in.Sessions {
		if out.Sessions[i] != in.Sessions[i] {
			t.Errorf("session %d mangled:\n got %+v\nwant %+v", i, out.Sessions[i], in.Sessions[i])
		}
	}
	// Malformed payloads error cleanly.
	good := encodeStatsReport(in)
	for name, data := range map[string][]byte{
		"empty-nonnil":     {},
		"truncated table":  good[:5],
		"truncated record": good[:len(good)-3],
		"no stage count":   good[:len(good)-2],
		"trailing bytes":   append(append([]byte(nil), good...), 0xee),
	} {
		if _, err := decodeStatsReport(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// FuzzStatsPayload is the v5 protocol fuzzer: the Stats decoder must
// never panic or over-allocate on hostile session counts, lengths or
// truncations.
func FuzzStatsPayload(f *testing.F) {
	f.Add(encodeStatsReport(statsFixture()))
	f.Add(encodeStatsReport(StatsReport{}))
	// v8 payload: a report carrying the pipeline stage table.
	f.Add(encodeStatsReport(StatsReport{Pipeline: pipelineStatsFixture()}))
	f.Add([]byte{0xff, 0xff})
	f.Add(make([]byte, 128))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeStatsReport(data)
	})
}

// TestRenderParamsQualityRoundTrip pins the params contract: the
// quality byte survives the round trip, a 52-byte payload without it is
// refused (the handshake is exact-match; no peer sends one), and an
// out-of-range tier is rejected — preview is only ever an explicit
// opt-in.
func TestRenderParamsQualityRoundTrip(t *testing.T) {
	p := RenderParams{Frame: 3, Width: 32, Height: 16, Quality: QualityPreview}
	got, err := decodeRenderParams(encodeRenderParams(p))
	if err != nil {
		t.Fatal(err)
	}
	if got.Quality != QualityPreview {
		t.Errorf("quality %d after round trip, want preview", got.Quality)
	}
	if def, err := decodeRenderParams(encodeRenderParams(RenderParams{Width: 8, Height: 8})); err != nil || def.Quality != QualityLossless {
		t.Errorf("zero-value params decode to quality %d (err %v), want lossless", def.Quality, err)
	}
	short := encodeRenderParams(p)
	if _, err = decodeRenderParams(short[:len(short)-1]); err == nil {
		t.Error("a 52-byte payload (no quality byte) was accepted")
	}
	bogus := encodeRenderParams(p)
	bogus[len(bogus)-1] = 99
	if _, err := decodeRenderParams(bogus); err == nil {
		t.Error("out-of-range quality tier accepted")
	}
}

// TestGetDeltaPayloadRoundTrip covers the 8-byte GetDelta request
// codec and its malformed cases.
func TestGetDeltaPayloadRoundTrip(t *testing.T) {
	frame, base, err := decodeGetDelta(encodeGetDelta(9, 8))
	if err != nil || frame != 9 || base != 8 {
		t.Errorf("round trip = (%d, %d, %v), want (9, 8, nil)", frame, base, err)
	}
	for name, data := range map[string][]byte{
		"empty": {}, "short": {1, 0, 0}, "long": make([]byte, 12),
	} {
		if _, _, err := decodeGetDelta(data); err == nil {
			t.Errorf("%s payload decoded without error", name)
		}
	}
}

// dialRaw opens a raw TCP connection with a completed handshake, for
// driving the server below the Client abstraction.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := clientHello(conn); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestServerRejectsUnknownOpcode: a well-framed message with an
// unassigned opcode gets a *typed* protocol error (ErrCodeUnknownVerb)
// and the connection stays usable — framing integrity is intact, so a
// client mixing up the two service roles keeps its session. Compute
// against a plain frame service takes the same path (the verb belongs
// to Worker), covered from the client side in TestComputeAgainstService.
func TestServerRejectsUnknownOpcode(t *testing.T) {
	srv, _ := serveMem(t, testReps(t, 1))
	conn := dialRaw(t, srv.Addr())
	bw := bufio.NewWriter(conn)
	if err := writeMessage(bw, 5, 0x7e, nil); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	msg, err := readMessage(conn, 0)
	if err != nil {
		t.Fatalf("no error response: %v", err)
	}
	if msg.op != opError || msg.reqID != 5 {
		t.Errorf("got op %#02x req %d, want opError echoing req 5", msg.op, msg.reqID)
	}
	if we := decodeWireError(msg.payload); we.Code != ErrCodeUnknownVerb {
		t.Errorf("error code %d, want ErrCodeUnknownVerb (%q)", we.Code, we.Msg)
	}
	// The connection survives: a known verb on the same session works.
	if err := writeMessage(bw, 6, opList, nil); err != nil {
		t.Fatal(err)
	}
	if msg, err = readMessage(conn, 0); err != nil || msg.op != opList|replyBit || msg.reqID != 6 {
		t.Errorf("connection unusable after unknown opcode: op %#02x, err %v", msg.op, err)
	}
}

// TestServerDropsCorruptStream: framing damage (bad CRC) terminates
// the connection without tearing down the service.
func TestServerDropsCorruptStream(t *testing.T) {
	srv, _ := serveMem(t, testReps(t, 1))
	conn := dialRaw(t, srv.Addr())
	body := goodBody(1, opList, nil)
	if _, err := conn.Write(rawFrame(uint32(len(body)), body, 0xbad)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Errorf("connection not cleanly closed: %v", err)
	}
	// Service still serves new clients.
	cli := dial(t, srv.Addr())
	if _, err := cli.List(); err != nil {
		t.Errorf("service dead after corrupt stream: %v", err)
	}
}

// TestServerRejectsBadHandshake covers magic and version mismatches.
func TestServerRejectsBadHandshake(t *testing.T) {
	srv, _ := serveMem(t, testReps(t, 1))
	for name, hello := range map[string][]byte{
		"bad magic":   []byte("XXXX\x01\x00\x00\x00"),
		"bad version": []byte("ACVP\x63\x00\x00\x00"),
		"truncated":   []byte("ACV"),
	} {
		conn, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(hello); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		buf := make([]byte, 64)
		for {
			if _, err := conn.Read(buf); err != nil {
				break // server hung up (or sent nothing and closed)
			}
		}
		conn.Close()
		_ = name
	}
	// Service remains healthy.
	cli := dial(t, srv.Addr())
	if _, err := cli.List(); err != nil {
		t.Errorf("service dead after bad handshakes: %v", err)
	}
}

// TestOversizedGetPayload: a Get with the wrong payload size is an
// application error, not a framing error — the connection survives.
func TestOversizedGetPayload(t *testing.T) {
	srv, _ := serveMem(t, testReps(t, 1))
	conn := dialRaw(t, srv.Addr())
	bw := bufio.NewWriter(conn)
	if err := writeMessage(bw, 9, opGet, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	msg, err := readMessage(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if msg.op != opError {
		t.Errorf("malformed get payload answered with op %#02x, want opError", msg.op)
	}
	if err := writeMessage(bw, 10, opList, nil); err != nil {
		t.Fatal(err)
	}
	if msg, err = readMessage(conn, 0); err != nil || msg.op != opList|replyBit {
		t.Errorf("connection dead after payload error: op %#02x, err %v", msg.op, err)
	}
}

// TestDecodeMalformedComputeRequests covers the Compute framing layer:
// kernel-name damage and every corruption class of the extract blob's
// pario-idiom encoding. Every case must error cleanly.
func TestDecodeMalformedComputeRequests(t *testing.T) {
	pts := []vec.V3{vec.New(1, 2, 3), vec.New(4, 5, 6)}
	blob := appendExtractRequest(nil, pts, octree.DefaultConfig(), hybrid.ExtractConfig{VolumeRes: 4, Budget: 1})

	reqCases := map[string][]byte{
		"empty":          {},
		"zero name len":  {0, 'x'},
		"truncated name": {10, 'a', 'b'},
	}
	for name, data := range reqCases {
		if _, _, err := decodeComputeRequest(data); err == nil {
			t.Errorf("compute request %s: decoded without error", name)
		}
	}

	// A huge claimed point count must be rejected before any allocation.
	hugeCount := append([]byte(nil), blob...)
	for i := 0; i < 8; i++ {
		hugeCount[72+i] = 0xff
	}
	blobCases := map[string][]byte{
		"empty":              {},
		"truncated fixed":    blob[:20],
		"bad magic":          flipByte(blob, 0),
		"bad version":        flipByte(blob, 4),
		"truncated points":   blob[:len(blob)-10],
		"extra bytes":        append(append([]byte(nil), blob...), 1, 2, 3),
		"flipped config":     flipByte(blob, 16),
		"flipped point byte": flipByte(blob, 85),
		"flipped crc":        flipByte(blob, len(blob)-1),
		"hostile count":      hugeCount,
	}
	for name, data := range blobCases {
		if _, _, _, err := decodeExtractRequest(data, nil); err == nil {
			t.Errorf("extract blob %s: decoded without error", name)
		}
	}

	// And the good blob round-trips exactly.
	got, tcfg, ecfg, err := decodeExtractRequest(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) || got[0] != pts[0] || got[1] != pts[1] {
		t.Errorf("points mangled in round trip: %v", got)
	}
	if tcfg != octree.DefaultConfig() {
		t.Errorf("tree config mangled: %+v", tcfg)
	}
	if (ecfg != hybrid.ExtractConfig{VolumeRes: 4, Budget: 1}) {
		t.Errorf("extract config mangled: %+v", ecfg)
	}
}

// FuzzComputeFraming is the fourth protocol fuzzer: the Compute
// request splitter and the extract blob decoder must never panic or
// over-allocate on hostile input.
func FuzzComputeFraming(f *testing.F) {
	blob := appendExtractRequest(nil,
		[]vec.V3{vec.New(1, 2, 3)}, octree.DefaultConfig(), hybrid.ExtractConfig{VolumeRes: 4, Budget: 1})
	req, err := appendComputeHeader(nil, KernelHybridExtract)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(req, blob...))
	f.Add(blob)
	f.Add([]byte{1, 'k'})
	f.Add(make([]byte, 96))
	f.Fuzz(func(t *testing.T, data []byte) {
		if kernel, blob, err := decodeComputeRequest(data); err == nil {
			_ = kernel
			_, _, _, _ = decodeExtractRequest(blob, nil)
		}
		_, _, _, _ = decodeExtractRequest(data, nil)
	})
}

// TestWireErrorRoundTrip: typed errors survive the wire encoding, and
// legacy empty payloads decode to a generic error.
func TestWireErrorRoundTrip(t *testing.T) {
	in := &WireError{Code: ErrCodeUnknownKernel, Msg: "remote: no kernel"}
	out := decodeWireError(encodeWireError(in))
	if out.Code != in.Code || out.Msg != in.Msg {
		t.Errorf("round trip mangled error: %+v", out)
	}
	if plain := decodeWireError(encodeWireError(io.ErrUnexpectedEOF)); plain.Code != ErrCodeGeneric {
		t.Errorf("plain error encoded with code %d, want generic", plain.Code)
	}
	if empty := decodeWireError(nil); empty.Code != ErrCodeGeneric || empty.Msg == "" {
		t.Errorf("empty payload decoded to %+v", empty)
	}
}

// TestUnexpectedReplyOpcode: a peer that handshakes and then answers
// every request with the wrong opcode gets a protocol error from every
// verb — naming the opcode it sent and the request's — and nothing
// panics, hangs, redials or retries; FetchFrameDelta in particular does
// not fall back to a second, full fetch.
func TestUnexpectedReplyOpcode(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	wrong := func(op byte) byte { return (op | replyBit) ^ 0x0f } // a reply opcode, but not op's
	var served atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if serverHello(conn) != nil {
			return
		}
		br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
		for {
			msg, err := readMessage(br, 0)
			if err != nil {
				return
			}
			served.Add(1)
			if writeMessage(bw, msg.reqID, wrong(msg.op), []byte("not a reply")) != nil {
				return
			}
		}
	}()
	conn, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClientConn(conn, ClientOptions{HeartbeatInterval: -1, RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		cli.Close()
		<-done
	}()

	ctx := context.Background()
	for _, v := range []struct {
		name string
		op   byte
		call func() error
	}{
		{"List", opList, func() error { _, err := cli.List(); return err }},
		{"Ping", opPing, func() error { _, err := cli.Ping(); return err }},
		{"Stats", opStats, func() error { _, err := cli.Stats(); return err }},
		{"FetchFrame", opGet, func() error { _, _, _, err := cli.FetchFrame(0); return err }},
		{"FetchFrameDelta", opGetDelta, func() error { _, _, _, _, err := cli.FetchFrameDelta(1, 0, []byte("base")); return err }},
		{"Render", opRender, func() error {
			_, _, _, err := cli.Render(RenderParams{Width: 8, Height: 8, ViewDir: vec.New(0, 0, 1)})
			return err
		}},
		{"Compute", opCompute, func() error { _, err := cli.Compute(ctx, KernelHybridExtract, nil); return err }},
		{"Kernels", opKernels, func() error { _, err := cli.Kernels(ctx); return err }},
		{"SubscribeWith", opSubscribe, func() error {
			_, err := cli.SubscribeWith(SubscribeOptions{InlineFrames: true})
			return err
		}},
	} {
		before := served.Load()
		err := v.call()
		if n := served.Load() - before; n != 1 {
			t.Errorf("%s: the server saw %d requests, want 1", v.name, n)
		}
		if err == nil {
			t.Errorf("%s: accepted reply opcode %#02x", v.name, wrong(v.op))
			continue
		}
		if errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: timed out instead of refusing the reply: %v", v.name, err)
		}
		for _, op := range []byte{v.op, wrong(v.op)} {
			if !strings.Contains(err.Error(), fmt.Sprintf("%#02x", op)) {
				t.Errorf("%s: error %q does not name opcode %#02x", v.name, err, op)
			}
		}
	}
	if n := cli.Redials(); n != 0 {
		t.Errorf("Redials = %d, want 0", n)
	}
}
