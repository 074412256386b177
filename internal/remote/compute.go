package remote

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/fieldline"
	"repro/internal/hybrid"
	"repro/internal/octree"
	"repro/internal/vec"
	"repro/internal/wire"
)

// The Compute verb ships one stage invocation to a Worker:
//
//	request payload:  u8 len(kernel) | kernel name | kernel blob
//	response payload: kernel blob
//
// Kernel blobs are opaque to the protocol layer; each kernel defines
// its own pario-idiom encoding (magic, version, trailing CRC-32) so a
// stage payload corrupted between the framing checks is still caught.
// The hybrid-extraction kernel's request blob is below; its reply blob
// is a hybrid representation in the standard .achy encoding (which
// carries its own CRC already).

// KernelHybridExtract is the built-in distributed stage kernel:
// projected point sets in, hybrid representations out. The version
// suffix is part of the name — an incompatible blob layout gets a new
// name, and old workers answer it with ErrCodeUnknownKernel instead of
// misdecoding.
const KernelHybridExtract = "hybrid.extract.v1"

// KernelFieldlineTrace is the second built-in kernel: batches of field
// line seeds in, integrated lines out (fieldline.TraceAll on the
// worker's cores). The field itself is named, not shipped — the
// request selects one of the analytic FieldSpec kinds with its
// parameters, so the blob stays a few bytes per seed. Tracing over a
// sampled solver frame would mean shipping the frame; that stays
// local for now.
const KernelFieldlineTrace = "fieldline.trace.v1"

// maxKernelName bounds the kernel-name field (it is length-prefixed
// with one byte).
const maxKernelName = 255

// ---- payload buffer pool --------------------------------------------

// payloadPool recycles wire payload buffers: inbound message bodies,
// compute request encodings, and kernel reply encodings. A
// steady-state distributed stream reuses a bounded set of buffers
// instead of allocating one per frame per hop — the wire-path
// equivalent of the pipeline's FreeList-recycled scratch.
var payloadPool sync.Pool // holds *[]byte

// getBytes returns a length-n buffer, reusing a pooled backing array
// when one is large enough.
func getBytes(n int) []byte {
	if bp, ok := payloadPool.Get().(*[]byte); ok {
		if b := *bp; cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// putBytes recycles a buffer obtained from getBytes (or any buffer the
// caller is done with). The caller must not touch b again.
func putBytes(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	payloadPool.Put(&b)
}

// ---- compute request framing ----------------------------------------

// appendComputeHeader appends the kernel-name prefix of a Compute
// request payload.
func appendComputeHeader(dst []byte, kernel string) ([]byte, error) {
	if len(kernel) == 0 || len(kernel) > maxKernelName {
		return dst, fmt.Errorf("remote: kernel name %q length out of range [1, %d]", kernel, maxKernelName)
	}
	return wire.Str8(dst, kernel), nil
}

// decodeComputeRequest splits a Compute payload into the kernel name
// and its blob. The blob aliases p.
func decodeComputeRequest(p []byte) (kernel string, blob []byte, err error) {
	rd := wire.NewReader("remote: compute payload", p)
	if kernel = rd.Str8(); kernel == "" {
		rd.Fail("empty kernel name")
	}
	blob = rd.Take(rd.Len())
	return kernel, blob, rd.Err()
}

// ---- hybrid-extraction kernel blob ----------------------------------

// The extract request blob ("ACPT" — accelerator point set) carries
// the projected point set together with the partition and extraction
// configs, so the worker reproduces the local Build+Extract exactly:
//
//	magic "ACPT" | u32 version | i64 MaxLevel | i64 LeafCap |
//	i64 TreeWorkers | f64 Pad | i64 VolumeRes | f64 Threshold |
//	i64 Budget | i64 ExtractWorkers | i64 n | n × (3 f64) |
//	u32 crc32 (all preceding bytes)
//
// Worker fields ship verbatim: octree.Build is bit-identical at every
// worker count, and hybrid.Extract's volume splat depends on its
// worker count only through slab boundaries — shipping the requester's
// value keeps the distributed result bit-identical to the local run
// (with Workers 0, both sides auto-size, which matches whenever the
// two processes see the same core count — pin a count for bit-exact
// runs across heterogeneous hosts).

var magicPointSet = [4]byte{'A', 'C', 'P', 'T'}

const pointSetVersion = 1

// appendExtractRequest appends the extract kernel's request blob.
func appendExtractRequest(dst []byte, pts []vec.V3, tcfg octree.Config, ecfg hybrid.ExtractConfig) []byte {
	dst = wire.Grow(dst, 84+24*len(pts)) // exact, so a pooled buffer of the last frame's size fits
	start := len(dst)
	dst = wire.Begin(dst, magicPointSet, pointSetVersion, 4)
	dst = wire.I64s(dst, int64(tcfg.MaxLevel), int64(tcfg.LeafCap), int64(tcfg.Workers))
	dst = wire.F64s(dst, tcfg.Pad)
	dst = wire.I64(dst, int64(ecfg.VolumeRes))
	dst = wire.F64s(dst, ecfg.Threshold)
	dst = wire.I64s(dst, ecfg.Budget, int64(ecfg.Workers), int64(len(pts)))
	dst = wire.V3s(dst, pts...)
	return wire.Finish(dst, start)
}

// decodeExtractRequest parses an extract request blob, verifying the
// checksum. The returned points reuse scratch's backing array when it
// is large enough; nothing aliases p, so the caller may recycle the
// blob immediately.
func decodeExtractRequest(p []byte, scratch []vec.V3) (pts []vec.V3, tcfg octree.Config, ecfg hybrid.ExtractConfig, err error) {
	rd := wire.Open("remote: extract request", p, magicPointSet, pointSetVersion, 4, true)
	tcfg = octree.Config{
		MaxLevel: int(rd.I64()),
		LeafCap:  int(rd.I64()),
		Workers:  int(rd.I64()),
		Pad:      rd.F64(),
	}
	ecfg = hybrid.ExtractConfig{
		VolumeRes: int(rd.I64()),
		Threshold: rd.F64(),
		Budget:    rd.I64(),
		Workers:   int(rd.I64()),
	}
	if n := rd.Count(rd.I64(), 24); cap(scratch) >= n {
		pts = scratch[:n]
	} else {
		pts = make([]vec.V3, n)
	}
	rd.V3s(pts)
	return pts, tcfg, ecfg, rd.Done()
}

// ---- field-line trace kernel blob -----------------------------------

// FieldKind names an analytic field the trace kernel can integrate.
type FieldKind uint8

const (
	// FieldUniform is the constant field Params[0:3].
	FieldUniform FieldKind = 0
	// FieldDipole is an ideal dipole at the origin with moment
	// Params[0:3]: B(r) = (3 r̂ (m·r̂) − m) / |r|³.
	FieldDipole FieldKind = 1
	// FieldVortex is the rigid-rotation field ω × r with
	// ω = Params[0:3] — its lines are circles, exercising the
	// CloseLoop termination.
	FieldVortex FieldKind = 2
)

// FieldSpec selects the field a remote trace integrates.
type FieldSpec struct {
	Kind   FieldKind
	Params [4]float64
}

// Field instantiates the named analytic field.
func (s FieldSpec) Field() (fieldline.Field, error) {
	p := vec.New(s.Params[0], s.Params[1], s.Params[2])
	switch s.Kind {
	case FieldUniform:
		return fieldline.FieldFunc(func(vec.V3) vec.V3 { return p }), nil
	case FieldDipole:
		return fieldline.FieldFunc(func(r vec.V3) vec.V3 {
			d2 := r.Len2()
			if d2 == 0 {
				return vec.V3{}
			}
			d := math.Sqrt(d2)
			rhat := r.Scale(1 / d)
			return rhat.Scale(3 * p.Dot(rhat)).Sub(p).Scale(1 / (d2 * d))
		}), nil
	case FieldVortex:
		return fieldline.FieldFunc(func(r vec.V3) vec.V3 { return p.Cross(r) }), nil
	default:
		return nil, fmt.Errorf("remote: unknown field kind %d", s.Kind)
	}
}

// The trace request blob ("ACFS" — accelerator field seeds) carries
// the field spec, the integration config, and the seed batch:
//
//	magic "ACFS" | u32 version | u8 kind | 4 f64 params | f64 Step |
//	i64 MaxSteps | f64 MinMag | u8 closeLoop | f64 sign | i64 workers |
//	i64 n | n × (3 f64) | u32 crc32 (all preceding bytes)
//
// Config.Domain is a Go function and cannot ship; Fleet.ComputeTrace
// rejects configs that set it. Workers ships verbatim like the extract
// blob's worker fields — TraceAll is bit-identical at every worker
// count, so this only matters for the worker's scheduling, not the
// result.

var (
	magicFieldSeeds = [4]byte{'A', 'C', 'F', 'S'}
	magicFieldReply = [4]byte{'A', 'C', 'F', 'R'}
)

const fieldSeedsVersion = 1

// appendTraceRequest appends the trace kernel's request blob.
func appendTraceRequest(dst []byte, spec FieldSpec, seeds []vec.V3, cfg fieldline.Config, sign float64, workers int) []byte {
	dst = wire.Grow(dst, 94+24*len(seeds))
	start := len(dst)
	dst = wire.Begin(dst, magicFieldSeeds, fieldSeedsVersion, 4)
	dst = wire.U8(dst, uint8(spec.Kind))
	dst = wire.F64s(dst, spec.Params[:]...)
	dst = wire.F64s(dst, cfg.Step)
	dst = wire.I64(dst, int64(cfg.MaxSteps))
	dst = wire.F64s(dst, cfg.MinMag)
	dst = wire.Bool(dst, cfg.CloseLoop)
	dst = wire.F64s(dst, sign)
	dst = wire.I64s(dst, int64(workers), int64(len(seeds)))
	dst = wire.V3s(dst, seeds...)
	return wire.Finish(dst, start)
}

// decodeTraceRequest parses a trace request blob, verifying the
// checksum. Nothing aliases p.
func decodeTraceRequest(p []byte) (spec FieldSpec, seeds []vec.V3, cfg fieldline.Config, sign float64, workers int, err error) {
	rd := wire.Open("remote: trace request", p, magicFieldSeeds, fieldSeedsVersion, 4, true)
	spec.Kind = FieldKind(rd.U8())
	rd.F64s(spec.Params[:])
	cfg = fieldline.Config{
		Step:      rd.F64(),
		MaxSteps:  int(rd.I64()),
		MinMag:    rd.F64(),
		CloseLoop: rd.Bool(),
	}
	sign, workers = rd.F64(), int(rd.I64())
	seeds = make([]vec.V3, rd.Count(rd.I64(), 24))
	rd.V3s(seeds)
	return spec, seeds, cfg, sign, workers, rd.Done()
}

// The trace reply blob ("ACFR") carries the integrated lines in full
// double precision, so a remote trace is bit-identical to the local
// TraceAll (lineio's single-precision file format is a storage trade
// this wire path does not make):
//
//	magic "ACFR" | u32 version | u32 count |
//	count × (u32 npts | u8 closed | npts × (7 f64: point, tangent,
//	strength)) | u32 crc32 (all preceding bytes)

// appendTraceReply appends the trace kernel's reply blob.
func appendTraceReply(dst []byte, lines []*fieldline.Line) []byte {
	start := len(dst)
	dst = wire.Begin(dst, magicFieldReply, fieldSeedsVersion, 4)
	dst = wire.U32(dst, uint32(len(lines)))
	for _, l := range lines {
		dst = wire.U32(dst, uint32(len(l.Points)))
		dst = wire.Bool(dst, l.Closed)
		for i, pt := range l.Points {
			dst = wire.V3s(dst, pt, l.Tangents[i])
			dst = wire.F64s(dst, l.Strengths[i])
		}
	}
	return wire.Finish(dst, start)
}

// decodeTraceReply parses a trace reply blob, verifying the checksum.
func decodeTraceReply(p []byte) ([]*fieldline.Line, error) {
	rd := wire.Open("remote: trace reply", p, magicFieldReply, fieldSeedsVersion, 4, true)
	lines := make([]*fieldline.Line, rd.Count(int64(rd.U32()), 5))
	for i := 0; i < len(lines) && rd.Err() == nil; i++ {
		n := rd.Count(int64(rd.U32()), 56)
		l := &fieldline.Line{
			Closed:    rd.Bool(),
			Points:    make([]vec.V3, n),
			Tangents:  make([]vec.V3, n),
			Strengths: make([]float64, n),
		}
		for j := range l.Points {
			l.Points[j], l.Tangents[j], l.Strengths[j] = rd.V3(), rd.V3(), rd.F64()
		}
		lines[i] = l
	}
	if err := rd.Done(); err != nil {
		return nil, err
	}
	return lines, nil
}
