package remote

import (
	"fmt"

	"repro/internal/hybrid"
	"repro/internal/octree"
	"repro/internal/pipeline"
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
const KernelHybridExtract = "hybrid.extract.v2"

// maxKernelName bounds the kernel-name field (it is length-prefixed
// with one byte).
const maxKernelName = 255

// ---- payload buffers ------------------------------------------------

// payloads recycles wire payload buffers: inbound message bodies,
// compute request encodings, and kernel reply encodings. A
// steady-state distributed stream reuses a bounded set of buffers
// instead of allocating one per frame per hop, and a buffer stays on
// the list across collections; one larger than pipeline.MaxKeptBytes is
// left to the collector.
var payloads = pipeline.NewFreeList(func() []byte { return nil })

// getBytes returns a length-n buffer, reusing a kept backing array when
// one is large enough.
func getBytes(n int) []byte { return pipeline.GetSlice(payloads, n) }

// putBytes recycles a buffer obtained from getBytes (or any buffer the
// caller is done with). The caller must not touch b again.
func putBytes(b []byte) { pipeline.PutSlice(payloads, b) }

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
//	magic "ACPT" | u32 version | i64 MaxLevel | i64 LeafCap | f64 Pad |
//	i64 VolumeRes | f64 Threshold | i64 Budget | i64 n | n × (3 f64) |
//	u32 crc32 (all preceding bytes)
//
// No worker count ships: octree.Build and hybrid.Extract give the same
// bytes at every worker count, so the worker builds on its own cores.

var magicPointSet = [4]byte{'A', 'C', 'P', 'T'}

const pointSetVersion = 2

// appendExtractRequest appends the extract kernel's request blob.
func appendExtractRequest(dst []byte, pts []vec.V3, tcfg octree.Config, ecfg hybrid.ExtractConfig) []byte {
	dst = wire.Grow(dst, 68+24*len(pts)) // exact, so a kept buffer of the last frame's size fits
	start := len(dst)
	dst = wire.Begin(dst, magicPointSet, pointSetVersion, 4)
	dst = wire.I64s(dst, int64(tcfg.MaxLevel), int64(tcfg.LeafCap))
	dst = wire.F64s(dst, tcfg.Pad)
	dst = wire.I64(dst, int64(ecfg.VolumeRes))
	dst = wire.F64s(dst, ecfg.Threshold)
	dst = wire.I64s(dst, ecfg.Budget, int64(len(pts)))
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
		Pad:      rd.F64(),
	}
	ecfg = hybrid.ExtractConfig{
		VolumeRes: int(rd.I64()),
		Threshold: rd.F64(),
		Budget:    rd.I64(),
	}
	if n := rd.Count(rd.I64(), 24); cap(scratch) >= n {
		pts = scratch[:n]
	} else {
		pts = make([]vec.V3, n)
	}
	rd.V3s(pts)
	return pts, tcfg, ecfg, rd.Done()
}
