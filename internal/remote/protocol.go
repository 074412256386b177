package remote

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"repro/internal/pipeline"
	"repro/internal/render"
	"repro/internal/vec"
	"repro/internal/wire"
)

// Wire protocol v10. Every connection starts with a handshake, and the
// versions must match exactly — a peer of any other version is refused
// here, before a frame-sized request crosses the wire, so no payload
// below has a second accepted shape:
//
//	client → server: magic "ACVP" | u32 version
//	server → client: magic "ACVP" | u32 version | u32 flags (reserved, 0)
//
// after which both directions exchange length-prefixed, CRC-framed
// messages (the same trailing-CRC idiom as pario's file formats, so
// corrupt or truncated transfers are detected):
//
//	u32 len(body) | body | u32 crc32(body)
//	body = u64 requestID | u8 opcode | payload
//
// Requests carry a client-chosen ID; every response echoes it, so a
// client can keep many requests in flight on one connection and match
// replies out of order — this is what lets a viewer overlap WAN
// fetches and the distributed extract stage overlap in-flight frames.
// Server pushes echo the Subscribe request's ID.
//
// The verbs and their payloads (each codec is below or in compute.go,
// all on internal/wire):
//
//	List        —                           ListInfo: i64 frames | i64 first | u8 live
//	Get         u32 frame                   the frame's .achy encoding
//	GetDelta    u32 frame | u32 base        "ACDL" residual of frame against base
//	Subscribe   — or u8 flags (inline)      u64 frames; then pushes: opNotify
//	                                        (u64 frames) or opNotifyFrame (u64
//	                                        frames | u32 index | .achy encoding)
//	Render      RenderParams                "ACPB" (lossless) or "ACFQ" (preview)
//	Compute     str8 kernel | request blob  the kernel's reply blob
//	Kernels     —                           u16 count | count × str8 name
//	Ping        —                           —
//	Stats       —                           StatsReport (encodeStatsReport)
//	any         …                           opError: u8 ErrorCode | message text
//
// A Service speaks what it holds: the store verbs (List, Get, GetDelta,
// Render, Subscribe) when it has a FrameStore, Compute and Kernels when
// it has kernels, and Ping and Stats always. Any other verb gets a typed
// ErrCodeUnknownVerb and the connection stays. ErrCodeUnavailable is the
// explicit "retry later or elsewhere": a draining service, or a service
// at its session or render limit.
//
// The blob formats that ride the verbs or sit on disk. All begin with a
// magic and a version; "crc" is a trailing CRC-32 of all preceding
// bytes, and the three without one are covered by the message CRC:
//
//	magic  version  crc  what                                 decoded by
//	ACHY   u64 3    yes  hybrid representation (.achy)        hybrid.DecodeBinary
//	ACFL   u32 1    yes  stored field lines, f32 (.acfl)      lineio.Decode
//	ACFQ   u32 1    no   quantized 8-bit preview framebuffer  render.DecompressFramebufferQuantized
//	ACDL   u32 1    no*  XOR residual of two byte streams     render.DecompressDelta
//	ACPB   u32 1    no   RGBA+depth framebuffer, covered rect render.DecompressPartial
//	ACPT   u32 2    yes  hybrid.extract.v3 request: points    decodeExtractRequest
//	ACPR   u32 1    yes  render.partial.v1 request: a slice   decodeRenderPartialRequest
//
// (* ACDL carries the CRC-32 of the stream it reconstructs, which is
// what catches a delta applied to the wrong base.) hybrid.extract.v3
// replies with ACHY, render.partial.v1 with ACPB, and the lossless
// Render tier with ACPB too, a whole frame at sequence number 0
// (render.CompressFramebuffer); v10 moved that reply to ACPB from a
// whole-frame format of its own, now gone. pario's ACPF, ACON and ACOP
// files stream objects too large to hold twice and are not on
// internal/wire. A blob's version is its own: ACHY went from 2 to 3
// (the volume as RLE ops) under protocol v9, and a peer that reads
// only version 2 refuses such a Get reply by name.

var protoMagic = [4]byte{'A', 'C', 'V', 'P'}

const (
	protoVersion = 10

	// maxBody bounds a message body so a corrupt or hostile length
	// prefix cannot cause an arbitrary allocation.
	maxBody = 1 << 30

	// msgOverhead is the body size before the payload: request ID + op.
	msgOverhead = 8 + 1
)

// Opcodes. A reply is the request opcode with replyBit set, or opError;
// a client refuses any other opcode as a reply (checkResponse).
// opNotify and opNotifyFrame are pushes, never replies.
const replyBit byte = 0x80

const (
	opList      byte = 0x01
	opGet       byte = 0x02
	opSubscribe byte = 0x03
	opRender    byte = 0x04
	opCompute   byte = 0x05
	opGetDelta  byte = 0x06
	opKernels   byte = 0x07
	opPing      byte = 0x08
	opStats     byte = 0x09

	opNotify      byte = 0x90
	opNotifyFrame byte = 0x91
	opError       byte = 0xFF
)

// subFlagInline, set in a Subscribe request's flags byte, asks the
// server to push each new frame's wire encoding inline (opNotifyFrame)
// instead of a bare count (opNotify).
const subFlagInline byte = 1 << 0

// ErrorCode classifies an error reply so clients can react to the
// class without parsing the message text.
type ErrorCode uint8

const (
	// ErrCodeGeneric is an unclassified application failure (missing
	// frame, render error, kernel failure).
	ErrCodeGeneric ErrorCode = 0
	// ErrCodeUnknownVerb: the request was well-framed but its opcode is
	// not one this service speaks. The connection stays usable — an
	// unknown verb says nothing about the framing.
	ErrCodeUnknownVerb ErrorCode = 1
	// ErrCodeBadRequest: the verb is known but its payload did not
	// decode.
	ErrCodeBadRequest ErrorCode = 2
	// ErrCodeUnknownKernel: a Compute named a kernel the worker does not
	// hold.
	ErrCodeUnknownKernel ErrorCode = 3
	// ErrCodeUnavailable: the server did not start the request and
	// says "later, or elsewhere" — a server draining toward shutdown, a
	// service at its session limit (MaxSessions: the refused session
	// gets it for every verb but Ping), or a render gate that is full
	// (MaxRenders). Transient by definition — the same request is welcome on another
	// fleet member or a fresh connection, so IsTransient classifies it
	// retryable.
	ErrCodeUnavailable ErrorCode = 4
)

// WireError is a typed protocol error: what a service sends in an
// opError reply and what client calls return for one. Test with
// errors.As plus the Code field (or the CodeOf shortcut).
type WireError struct {
	Code ErrorCode
	Msg  string
}

func (e *WireError) Error() string { return e.Msg }

// CodeOf extracts the error code from err's chain, or ErrCodeGeneric
// if no WireError is present.
func CodeOf(err error) ErrorCode {
	var we *WireError
	if errors.As(err, &we) {
		return we.Code
	}
	return ErrCodeGeneric
}

// encodeWireError builds an opError payload: u8 code | message text.
func encodeWireError(err error) []byte {
	return append(wire.U8(nil, uint8(CodeOf(err))), err.Error()...)
}

// decodeWireError parses an opError payload. An empty payload decodes
// as a generic error rather than failing.
func decodeWireError(p []byte) *WireError {
	if len(p) == 0 {
		return &WireError{Code: ErrCodeGeneric, Msg: "unspecified server error"}
	}
	return &WireError{Code: ErrorCode(p[0]), Msg: string(p[1:])}
}

// badRequest types a request payload that did not decode.
func badRequest(err error) error {
	return &WireError{Code: ErrCodeBadRequest, Msg: err.Error()}
}

// checkResponse admits msg as the reply to a request of opcode op: the
// reply opcode op|replyBit passes, an opError reply becomes an error
// whose chain carries the server's *WireError (classify with errors.As
// or CodeOf), and any other opcode — which only a peer outside the
// protocol sends — is a protocol error naming both opcodes, transient
// like every transport fault.
func checkResponse(op byte, msg message) (message, error) {
	if msg.op == op|replyBit {
		return msg, nil
	}
	if msg.op == opError {
		return message{}, fmt.Errorf("remote: server error: %w", decodeWireError(msg.payload))
	}
	return message{}, fmt.Errorf("remote: unexpected reply opcode %#02x to request %#02x", msg.op, op)
}

// message is one decoded protocol frame. body is the recycled backing
// buffer of payload (when the message came off the wire); consumers
// that fully copy what they need out of payload may recycle it.
type message struct {
	reqID   uint64
	op      byte
	payload []byte
	body    []byte
}

// recycle returns the message's backing buffer to the payload free list.
// The caller must not touch payload afterwards.
func (m message) recycle() { putBytes(m.body) }

// writeMessage frames and sends one message; the caller serializes
// concurrent writers. The payload is vectored: the segments are framed
// as one contiguous payload without being joined in memory first. The
// broadcast path leans on this — a shared frame encoding goes out to
// every subscriber prefixed by a tiny per-connection header, no
// per-subscriber copy of the frame.
func writeMessage(w *bufio.Writer, reqID uint64, op byte, segs ...[]byte) error {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	if total > maxBody-msgOverhead {
		return fmt.Errorf("remote: message payload %d exceeds limit", total)
	}
	le := binary.LittleEndian
	var head [4 + msgOverhead]byte
	le.PutUint32(head[0:], uint32(msgOverhead+total))
	le.PutUint64(head[4:], reqID)
	head[12] = op
	crc := crc32.NewIEEE()
	crc.Write(head[4:])
	for _, s := range segs {
		crc.Write(s)
	}
	if _, err := w.Write(head[:]); err != nil {
		return fmt.Errorf("remote: writing message header: %w", err)
	}
	for _, s := range segs {
		if _, err := w.Write(s); err != nil {
			return fmt.Errorf("remote: writing message payload: %w", err)
		}
	}
	var tail [4]byte
	le.PutUint32(tail[:], crc.Sum32())
	if _, err := w.Write(tail[:]); err != nil {
		return fmt.Errorf("remote: writing message checksum: %w", err)
	}
	return w.Flush()
}

// readMessage decodes one message from r. rateBps > 0 throttles the
// body read to that many bytes per second (the client's WAN model).
// Malformed input — truncated header or body, an implausible length, a
// checksum mismatch — returns an error and never panics.
func readMessage(r io.Reader, rateBps int64) (message, error) {
	le := binary.LittleEndian
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return message{}, err // io.EOF here is a clean close
	}
	n := le.Uint32(lenBuf[:])
	if n < msgOverhead {
		return message{}, fmt.Errorf("remote: message body %d shorter than header", n)
	}
	if n > maxBody {
		return message{}, fmt.Errorf("remote: implausible message body %d", n)
	}
	body := getBytes(int(n))
	if err := readThrottled(r, body, rateBps); err != nil {
		putBytes(body)
		return message{}, fmt.Errorf("remote: reading message body: %w", err)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		putBytes(body)
		return message{}, fmt.Errorf("remote: reading message checksum: %w", err)
	}
	if got, want := le.Uint32(crcBuf[:]), crc32.ChecksumIEEE(body); got != want {
		putBytes(body)
		return message{}, fmt.Errorf("remote: message checksum mismatch (wire %08x, computed %08x)", got, want)
	}
	return message{
		reqID:   le.Uint64(body[0:]),
		op:      body[8],
		payload: body[msgOverhead:],
		body:    body,
	}, nil
}

// readThrottled fills p, sleeping as needed to hold the modeled link
// rate — the "10 seconds for a 100MB time step" arithmetic of §2.5.
func readThrottled(r io.Reader, p []byte, rateBps int64) error {
	if rateBps <= 0 {
		_, err := io.ReadFull(r, p)
		return err
	}
	const chunk = 64 << 10
	read := 0
	start := time.Now()
	for read < len(p) {
		n := min(chunk, len(p)-read)
		if _, err := io.ReadFull(r, p[read:read+n]); err != nil {
			return err
		}
		read += n
		ideal := time.Duration(float64(read) / float64(rateBps) * float64(time.Second))
		if elapsed := time.Since(start); elapsed < ideal {
			time.Sleep(ideal - elapsed)
		}
	}
	return nil
}

// clientHello / serverHello run the version handshake.
func clientHello(conn io.ReadWriter) error {
	var out [8]byte
	copy(out[:], protoMagic[:])
	binary.LittleEndian.PutUint32(out[4:], protoVersion)
	if _, err := conn.Write(out[:]); err != nil {
		return fmt.Errorf("remote: sending hello: %w", err)
	}
	var in [12]byte
	if _, err := io.ReadFull(conn, in[:]); err != nil {
		return fmt.Errorf("remote: reading server hello: %w", err)
	}
	if [4]byte(in[:4]) != protoMagic {
		return fmt.Errorf("remote: bad server magic %q", in[:4])
	}
	if v := binary.LittleEndian.Uint32(in[4:]); v != protoVersion {
		return fmt.Errorf("remote: server speaks protocol v%d, client v%d", v, protoVersion)
	}
	return nil
}

func serverHello(conn io.ReadWriter) error {
	var in [8]byte
	if _, err := io.ReadFull(conn, in[:]); err != nil {
		return fmt.Errorf("remote: reading client hello: %w", err)
	}
	if [4]byte(in[:4]) != protoMagic {
		return fmt.Errorf("remote: bad client magic %q", in[:4])
	}
	if v := binary.LittleEndian.Uint32(in[4:]); v != protoVersion {
		return fmt.Errorf("remote: client speaks protocol v%d, server v%d", v, protoVersion)
	}
	var out [12]byte
	copy(out[:], protoMagic[:])
	binary.LittleEndian.PutUint32(out[4:], protoVersion)
	binary.LittleEndian.PutUint32(out[8:], 0) // flags, reserved
	if _, err := conn.Write(out[:]); err != nil {
		return fmt.Errorf("remote: sending hello: %w", err)
	}
	return nil
}

// ListInfo is the List response: the store's frame range and liveness.
type ListInfo struct {
	Frames int  // frames published so far; valid indices end here
	First  int  // oldest index still available (live rings evict)
	Live   bool // whether the store can push new frames to subscribers
}

func encodeListInfo(li ListInfo) []byte {
	return wire.Bool(wire.I64s(nil, int64(li.Frames), int64(li.First)), li.Live)
}

func decodeListInfo(p []byte) (ListInfo, error) {
	rd := wire.NewReader("remote: list payload", p)
	li := ListInfo{Frames: int(rd.I64()), First: int(rd.I64()), Live: rd.Bool()}
	if li.Frames < 0 || li.First < 0 || li.First > li.Frames {
		rd.Fail("inconsistent (%d frames, first %d)", li.Frames, li.First)
	}
	return li, rd.Done()
}

// RenderQuality selects the wire codec of a server-side render — the
// client-negotiated quality tier.
type RenderQuality uint8

const (
	// QualityLossless ships the full float framebuffer under lossless
	// word-RLE, bit-identical to a local render. The default: stills
	// and anything quantitative use it.
	QualityLossless RenderQuality = 0
	// QualityPreview ships a quantized 8-bit color image (~4-5x
	// smaller) with no depth plane — preview-grade interaction only.
	// LOSSY: bit-identical only to its own decode, never to the
	// lossless tier, and never selected unless the client asks.
	QualityPreview RenderQuality = 1
)

func (q RenderQuality) valid() bool { return q <= QualityPreview }

// RenderParams is the thin-client request: instead of transferring the
// full hybrid frame, the client ships camera and transfer-function
// parameters and the server renders the frame itself,
// returning an RLE-compressed framebuffer. Zero-valued TF fields mean
// the server's defaults (hybrid.DefaultTF), so a zero-TF render is
// bit-identical to core.RenderFrame run locally.
type RenderParams struct {
	Frame         int
	Width, Height int
	ViewDir       vec.V3
	// VolumeOpacity overrides the transfer function's opacity scale
	// when > 0.
	VolumeOpacity float64
	// LogDomainK overrides the log-domain expansion constant when > 0.
	LogDomainK float64
	// Quality selects the response codec; the zero value is lossless.
	Quality RenderQuality
}

// encodeRenderParams builds a Render request payload:
// u32 frame | u32 w | u32 h | 3 f64 viewDir | f64 opacity | f64 logK |
// u8 quality.
func encodeRenderParams(p RenderParams) []byte {
	out := wire.U32s(nil, uint32(p.Frame), uint32(p.Width), uint32(p.Height))
	out = wire.V3s(out, p.ViewDir)
	out = wire.F64s(out, p.VolumeOpacity, p.LogDomainK)
	return wire.U8(out, uint8(p.Quality))
}

func decodeRenderParams(p []byte) (RenderParams, error) {
	rd := wire.NewReader("remote: render payload", p)
	rp := RenderParams{
		Frame:         int(int32(rd.U32())),
		Width:         int(rd.U32()),
		Height:        int(rd.U32()),
		ViewDir:       rd.V3(),
		VolumeOpacity: rd.F64(),
		LogDomainK:    rd.F64(),
		Quality:       RenderQuality(rd.U8()),
	}
	if !rp.Quality.valid() {
		rd.Fail("unknown render quality tier %d", rp.Quality)
	}
	// Refused here, before the render cache keys on them: a NaN key never
	// matches, so its entry could never be found again or removed.
	if !rp.ViewDir.IsFinite() {
		rd.Fail("non-finite camera view direction %v", rp.ViewDir)
	}
	if !finite(rp.VolumeOpacity) || !finite(rp.LogDomainK) {
		rd.Fail("non-finite volume opacity %g or log-domain constant %g", rp.VolumeOpacity, rp.LogDomainK)
	}
	checkRenderSize(&rd, rp.Width, rp.Height)
	return rp, rd.Done()
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// checkRenderSize bounds the framebuffer a request can demand: like
// maxBody, a hostile few bytes must not force an arbitrary server-side
// allocation. The bound is the one every picture decoder applies.
func checkRenderSize(rd *wire.Reader, w, h int) {
	if !render.PlausibleSize(w, h) {
		rd.Fail("implausible render size %dx%d", w, h)
	}
}

// encodeIndex builds a Get request payload: the frame index as a u32.
func encodeIndex(i int) []byte { return wire.U32(nil, uint32(i)) }

func decodeIndex(p []byte) (int, error) {
	rd := wire.NewReader("remote: get payload", p)
	return int(int32(rd.U32())), rd.Done()
}

// encodeCount builds the payload of a Subscribe response and of an
// opNotify push: the server's frame count as a u64.
func encodeCount(frames int) []byte { return wire.U64(nil, uint64(frames)) }

func decodeCount(p []byte) (int, error) {
	rd := wire.NewReader("remote: frame count payload", p)
	return int(rd.U64()), rd.Done()
}

// An opNotifyFrame payload is u64 frames | u32 index of the newest
// frame, followed by that frame's wire encoding.
// appendNotifyFrameHeader appends the prefix, which goes out as its own
// segment ahead of the encoding every subscriber shares.
func appendNotifyFrameHeader(dst []byte, frames int) []byte {
	return wire.U32(wire.U64(dst, uint64(frames)), uint32(frames-1))
}

// decodeNotifyFrame splits an opNotifyFrame payload; Payload aliases p.
func decodeNotifyFrame(p []byte) (FrameUpdate, error) {
	rd := wire.NewReader("remote: notify-frame payload", p)
	u := FrameUpdate{Frames: int(rd.U64()), Index: int(rd.U32())}
	u.Payload = rd.Take(rd.Len())
	return u, rd.Err()
}

// encodeGetDelta builds a GetDelta request payload: u32 frame | u32
// base — "send me frame, I hold base".
func encodeGetDelta(frame, base int) []byte {
	return wire.U32s(nil, uint32(frame), uint32(base))
}

func decodeGetDelta(p []byte) (frame, base int, err error) {
	rd := wire.NewReader("remote: get-delta payload", p)
	return int(int32(rd.U32())), int(int32(rd.U32())), rd.Done()
}

// encodeKernelList builds a Kernels response payload:
// u16 count | count × (u8 len | name). appendComputeHeader bounds each
// name to maxKernelName.
func encodeKernelList(names []string) (out []byte, err error) {
	if len(names) > math.MaxUint16 {
		return nil, fmt.Errorf("remote: %d kernels exceed the advertisement limit", len(names))
	}
	out = wire.U16(make([]byte, 0, 2+16*len(names)), uint16(len(names)))
	for _, name := range names {
		if out, err = appendComputeHeader(out, name); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// decodeKernelList parses a Kernels response payload. Malformed input
// returns an error and never panics.
func decodeKernelList(p []byte) ([]string, error) {
	rd := wire.NewReader("remote: kernel list", p)
	names := make([]string, rd.Count(int64(rd.U16()), 2))
	for i := range names {
		if names[i] = rd.Str8(); names[i] == "" {
			rd.Fail("entry %d is empty", i)
		}
	}
	if err := rd.Done(); err != nil {
		return nil, err
	}
	return names, nil
}

// SessionStats is one connection's row in the Stats response: who it
// is, whether it subscribes (and how), and how its bounded send queue
// is doing — the per-subscriber half of the overload measurement
// surface. Counters are cumulative over the session's life.
type SessionStats struct {
	ID         uint64 // server-assigned session id, stable for the connection
	Remote     string // peer address
	Subscribed bool   // has an active subscription
	Inline     bool   // subscription asked for inline frame payloads
	Refused    bool   // admission-refused: every verb answers ErrCodeUnavailable
	QueueDepth int    // pushes waiting in the send queue right now
	QueueCap   int    // the queue's bound
	Dropped    uint64 // oldest pushes dropped on a full queue
	Sent       uint64 // pushes actually written to the wire
	LastSent   int    // frame count of the newest push written (0 = none)
}

// StatsReport is the Stats verb's response: the service-wide counters,
// one row per live session, and — when the service fronts a live
// in-situ stream — the stream's per-stage pipeline telemetry table
// (protocol v8).
type StatsReport struct {
	Stats    ServiceStats
	Sessions []SessionStats
	Pipeline []pipeline.StageSnapshot
}

// encodeStatsReport builds a Stats response payload:
//
//	u16 counterCount | counterCount × u64 |
//	u32 sessionCount | sessionCount × session | u16 stageCount | stageCount × stage
//
//	session = u64 id | u8 flags (subscribed, inline, refused) | u32 depth |
//	          u32 cap | u64 dropped | u64 sent | i64 lastSent | str8 remote
//	stage   = u8 kind | u8 flags (critical, finished) | u32 workers |
//	          u32 inFlight | u64 done | 2 × i64 ns (service EWMA, window) |
//	          4 f64 (throughput, utilization, recv-wait, send-wait) |
//	          str8 name
//
// The counters go in ServiceStats.fields order, and counterCount must
// equal numStats: the handshake is exact-match, so a peer with another
// counter table does not exist, and a payload claiming one is refused.
// An absent stage table (a store-backed service with no pipeline)
// encodes as a zero stage count.
func encodeStatsReport(r StatsReport) []byte {
	out := wire.U16(make([]byte, 0, 8*numStats+64*len(r.Sessions)+96*len(r.Pipeline)+8), numStats)
	for _, f := range r.Stats.fields() {
		out = wire.U64(out, *f)
	}
	out = wire.U32(out, uint32(len(r.Sessions)))
	for _, s := range r.Sessions {
		out = wire.U64(out, s.ID)
		out = wire.Flags(out, s.Subscribed, s.Inline, s.Refused)
		out = wire.U32s(out, uint32(s.QueueDepth), uint32(s.QueueCap))
		out = wire.U64s(out, s.Dropped, s.Sent)
		out = wire.I64(out, int64(s.LastSent))
		out = wire.Str8(out, s.Remote)
	}
	out = wire.U16(out, uint16(len(r.Pipeline)))
	for _, st := range r.Pipeline {
		out = wire.U8(out, uint8(st.Kind))
		out = wire.Flags(out, st.Critical, st.Finished)
		out = wire.U32s(out, uint32(st.Workers), uint32(st.InFlight))
		out = wire.U64(out, st.Done)
		out = wire.I64s(out, int64(st.ServiceEWMA), int64(st.Window))
		out = wire.F64s(out, st.Throughput, st.Utilization, st.RecvWait, st.SendWait)
		out = wire.Str8(out, st.Name)
	}
	return out
}

// decodeStatsReport parses a Stats response payload. Malformed input —
// truncated records, hostile counts, trailing bytes — returns an error
// and never panics or over-allocates.
func decodeStatsReport(p []byte) (StatsReport, error) {
	rd := wire.NewReader("remote: stats payload", p)
	if n := rd.U16(); n != numStats {
		rd.Fail("%d counters, want %d", n, numStats)
	}
	var r StatsReport
	for _, f := range r.Stats.fields() {
		*f = rd.U64()
	}
	// Count takes the shortest record each table can hold: 42 bytes for a
	// session with an empty remote, 67 for a stage with an empty name.
	r.Sessions = make([]SessionStats, rd.Count(int64(rd.U32()), 42))
	for i := range r.Sessions {
		s := &r.Sessions[i]
		s.ID = rd.U64()
		rd.Flags(&s.Subscribed, &s.Inline, &s.Refused)
		s.QueueDepth, s.QueueCap = int(rd.U32()), int(rd.U32())
		s.Dropped, s.Sent = rd.U64(), rd.U64()
		s.LastSent = int(rd.I64())
		s.Remote = rd.Str8()
	}
	if n := rd.Count(int64(rd.U16()), 67); n > 0 {
		r.Pipeline = make([]pipeline.StageSnapshot, n)
	}
	for i := range r.Pipeline {
		st := &r.Pipeline[i]
		st.Kind = pipeline.StageKind(rd.U8())
		rd.Flags(&st.Critical, &st.Finished)
		st.Workers, st.InFlight = int(rd.U32()), int(rd.U32())
		st.Done = rd.U64()
		st.ServiceEWMA, st.Window = time.Duration(rd.I64()), time.Duration(rd.I64())
		st.Throughput, st.Utilization = rd.F64(), rd.F64()
		st.RecvWait, st.SendWait = rd.F64(), rd.F64()
		st.Name = rd.Str8()
	}
	if err := rd.Done(); err != nil {
		return StatsReport{}, err
	}
	return r, nil
}

// TransferEstimate returns how long a payload of the given size takes
// at the given bandwidth — the arithmetic behind the paper's frame
// budgeting (100MB at ~10MB/s ≈ 10 s).
func TransferEstimate(bytes, bandwidthBps int64) time.Duration {
	if bandwidthBps <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / float64(bandwidthBps) * float64(time.Second))
}
