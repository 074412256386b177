// Package remote is the visualization service API for the paper's
// remote setting: frames are produced "where the supercomputer lives"
// and viewed "on a scientist's desk thousands of miles away" (§2.5).
//
// The read side is a FrameStore — an ordered collection of hybrid
// frames with three implementations covering the three deployment
// modes:
//
//   - MemStore: a fixed in-memory frame set (post-hoc, all extracted)
//   - DirStore: a directory of .achy files (the batch workflow)
//   - LiveRing: a bounded latest-wins ring that a *running* pipeline
//     publishes into (in-situ mode) — it implements core.FrameSink, the
//     write side that core.StreamFrames/StreamSolve accept as a sink
//     stage, so remote viewers watch the simulation while it computes
//     and a slow client can never backpressure the solver.
//
// A Service is the one server type. Every connection runs the same
// loop, session table and idle reaper, and the service answers the
// verbs of what it holds. With a FrameStore (NewService) it serves the
// store to concurrent clients over a versioned, length-prefixed,
// CRC-framed, request-ID-multiplexed protocol (protocol.go, v10) with
// these store verbs:
//
//   - List: frame range and liveness
//   - Get: full-frame transfer (fetch-and-render-locally); the
//     transfer-size economics of the hybrid representation — 100MB
//     frames at ~10s on the paper's links — measured by FetchFrame
//   - GetDelta (v3): the client names a frame it already holds and
//     receives the requested frame as a word-RLE-compressed XOR
//     residual against it — on a correlated time series a small
//     fraction of the full transfer, reconstructed bit-identically
//     (CRC-verified) by FetchFrameDelta, with transparent full-fetch
//     fallback when the base is gone or stale
//   - Subscribe: live-frame push notifications (LiveStore stores).
//     With the v3 inline flag (SubscribeOptions.InlineFrames) each
//     notify carries the new frame's wire encoding itself — encoded
//     once and broadcast to every inline subscriber from the shared
//     buffer, so per-frame server work is independent of audience size
//   - Render: thin-client mode — the client ships camera/transfer-
//     function parameters, the server renders the frame and
//     returns its covered rectangle as an RLE-compressed RGBA+depth
//     framebuffer (ACPB, the sort-last partials' codec, since v10),
//     bit-identical to a local render at ~1-2 orders of magnitude
//     fewer bytes than the frame itself. v3 adds a negotiated quality
//     tier: the default stays lossless; QualityPreview opts into a
//     quantized 8-bit image several times smaller again (lossy
//     against the source, stable under its own round trip)
//
// and, whatever it holds, these two:
//
//   - Ping (v5): heartbeat. Clients ping in the background every
//     ClientOptions.HeartbeatInterval (default 15s) and declare a peer
//     dead after IdleTimeout of inbound silence; the server reaps a
//     connection that sends nothing — not even a ping or its handshake
//     — for ServiceOptions.IdleTimeout (default 2m), cancelling the
//     work it left in flight. Both sides answer it in every state,
//     including admission-refused and draining sessions
//   - Stats (v5): the measurement surface — ServiceStats counters plus
//     a per-session table (admission verdict, subscription mode, send
//     queue depth/capacity, drop/sent counters) and, when the
//     service fronts a live stream, its per-stage pipeline table (v7;
//     v8 narrowed each stage record, v9 dropped the degrade and evict
//     counters)
//
// v5 is the session-resilience revision. On the server, each
// subscriber gets a bounded send queue (ServiceOptions.SendQueue)
// drained by its own goroutine, so a stalled connection never blocks
// the publisher or the other subscribers, and memory per subscriber is
// bounded; a full queue drops its oldest push, so the newest wins and a
// subscriber that catches up skips to the live head. A peer that stops
// reading altogether is bounded by the idle reaper and MaxSessions.
// Admission control (MaxSessions, MaxRenders) refuses excess work with
// retryable ErrCodeUnavailable instead of degrading admitted clients.
// On the client, one made by Dial redials with pipeline.Retry backoff
// on any transient failure (connection loss, heartbeat timeout,
// retryable refusal), re-handshakes, and re-issues the interrupted
// call; one made by NewClientConn over a transport its
// owner controls never does. SubscribeResume keeps a subscription
// across reconnects, catching up over GetDelta from the last delivered
// frame so the resumed stream is ordered, gapless and bit-identical to
// an uninterrupted one.
//
// On the server, all of Get, GetDelta and Render run behind
// encode-once caches (LRU + single-flight): N concurrent requests for
// the same frame, residual, or view cost one encode/render, which is
// what makes fan-out to large subscriber counts scale (see
// BenchmarkFanOut and ServiceStats).
//
// With kernels, a Service speaks Compute and Kernels: it hosts named
// stage kernels, so the pipeline engine can place a stage's per-frame
// work on another process or host. NewWorker builds such a service
// without a store, with two kernels built in, each with pario-idiom
// CRC-framed request/reply encodings:
//
//	kernel             request  reply  wired in by
//	hybrid.extract.v3  "ACPT"   .achy  core.StreamOptions.ExtractAddrs
//	render.partial.v1  "ACPR"   "ACPB" core.StreamOptions.RenderAddrs (v6)
//
// render.partial.v1 is the v6 sort-last kernel: the request carries a
// sub-volume of a frame's hybrid representation (an octree-partition
// slice of the leaf-ordered point set) plus camera and transfer-
// function parameters, the worker renders the point-splat pass with a
// depth channel clipped to the sub-volume's conservative depth slab,
// and the reply is a compressed RGBA+depth partial framebuffer
// ("ACPB", render.AppendPartial). The stream's render stage fans one
// request per partition across a render fleet and depth-composites
// the partials (internal/compositor) before the volume ray cast runs
// over the merged framebuffer — bit-identical to a single-node render
// at every partition count, worker count, and under mid-frame worker
// loss. cmd/vizworker hosts both kernels. Kernels (v4) is the
// provisioning check: a worker advertises its hosted kernel set, and
// a Fleet refuses to admit a member that does not host its kernel. A
// service answers the verbs of what it does not hold with a typed
// ErrCodeUnknownVerb error and keeps the connection.
//
// A Fleet stripes one kernel's requests across N workers with
// per-member in-flight windows and the robustness machinery the
// cross-site setting needs: per-attempt deadlines, exponential
// backoff with jitter, bounded re-dispatch of lost frames to
// surviving members (bit-identical — the stage reorderer keeps output
// order), consecutive-failure ejection with periodic probe-and-rejoin,
// and graceful degradation — a fleet stream fails only when no member
// can serve a frame within the retry policy. A service drains on
// Shutdown (v4 ErrCodeUnavailable answers are retried elsewhere), so
// deliberately stopping a worker never truncates a stream.
//
// Because responses are matched to requests by ID, one connection
// carries many requests in flight: a viewer overlaps its WAN fetches
// — and a distributed stage its in-flight frames — on a single
// session.
//
// A reply's opcode is its request's with the high bit set, or opError.
// Every verb of a Client checks that in one place: any other opcode
// can only come from a peer outside the protocol, and the call fails
// with a protocol error naming both opcodes. IsTransient classifies it
// like a lost connection, so a dialed client redials, and
// FetchFrameDelta returns it instead of falling back to a full fetch.
package remote
