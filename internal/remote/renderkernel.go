package remote

import (
	"context"
	"fmt"
	"math"

	"repro/internal/hybrid"
	"repro/internal/render"
	"repro/internal/vec"
	"repro/internal/volren"
	"repro/internal/wire"
)

// KernelRenderPartial is the third built-in kernel (protocol v6): the
// worker half of sort-last distributed rendering. One contiguous
// octree-ordered slice of a frame's halo points comes in with the
// camera and transfer-function parameters; the worker runs the exact
// local point pass over its sub-volume — splat selection hashed at
// the slice's global offset, rasterization depth-clipped to the
// slice's own bounds — and a compressed RGBA+depth partial
// framebuffer ("ACPB", render.CompressPartial) goes back for the
// requester's compositor. Compositing every partition's partial
// reproduces the single-node point pass bit for bit.
const KernelRenderPartial = "render.partial.v1"

// RenderPartialRequest is one sub-volume render: the inputs a worker
// needs to reproduce its slice of the frame exactly.
type RenderPartialRequest struct {
	Width, Height int      // framebuffer size
	Seq           int      // partition index in splat submission order
	Offset        int      // global index of Points[0] in the frame's point order
	ViewDir       vec.V3   // camera direction (LookAtBounds)
	PointScale    float64  // splat radius in pixels
	Opaque        bool     // fully-opaque points (Fig 4 style)
	Bounds        vec.AABB // the WHOLE frame's bounds — every partition frames the same camera
	Threshold     float64  // TF parameter: extraction threshold
	MaxLeafD      float64  // TF parameter: max leaf density
	Points        []vec.V3
	Density       []float32 // per-point leaf densities, len == len(Points)
}

// The render request blob ("ACPR" — accelerator partial render):
//
//	magic "ACPR" | u32 version | u32 w | u32 h | u32 seq | i64 offset |
//	3 f64 viewDir | f64 pointScale | u8 opaque | 6 f64 bounds |
//	f64 threshold | f64 maxLeafD | i64 n | n × (3 f64) | n × f32 |
//	u32 crc32 (all preceding bytes)
//
// Bounds/threshold/maxLeafD are the three representation fields the
// camera (render.LookAtBounds) and default TF (hybrid.DefaultTFParams)
// depend on, so the worker rebuilds both bit-identically without the
// frame's volume ever crossing the wire.

var magicPartialRender = [4]byte{'A', 'C', 'P', 'R'}

const partialRenderVersion = 1

// appendRenderPartialRequest appends the render kernel's request blob.
func appendRenderPartialRequest(dst []byte, r *RenderPartialRequest) []byte {
	dst = wire.Grow(dst, 137+28*len(r.Points))
	start := len(dst)
	dst = wire.Begin(dst, magicPartialRender, partialRenderVersion, 4)
	dst = wire.U32s(dst, uint32(r.Width), uint32(r.Height), uint32(r.Seq))
	dst = wire.I64(dst, int64(r.Offset))
	dst = wire.V3s(dst, r.ViewDir)
	dst = wire.F64s(dst, r.PointScale)
	dst = wire.Bool(dst, r.Opaque)
	dst = wire.V3s(dst, r.Bounds.Min, r.Bounds.Max)
	dst = wire.F64s(dst, r.Threshold, r.MaxLeafD)
	dst = wire.I64(dst, int64(len(r.Points)))
	dst = wire.V3s(dst, r.Points...)
	dst = wire.F32s(dst, r.Density...)
	return wire.Finish(dst, start)
}

// decodeRenderPartialRequest parses a render request blob, verifying
// the checksum. Nothing aliases p.
func decodeRenderPartialRequest(p []byte) (*RenderPartialRequest, error) {
	rd := wire.Open("remote: render request", p, magicPartialRender, partialRenderVersion, 4, true)
	r := &RenderPartialRequest{
		Width:      int(rd.U32()),
		Height:     int(rd.U32()),
		Seq:        int(rd.U32()),
		Offset:     int(rd.I64()),
		ViewDir:    rd.V3(),
		PointScale: rd.F64(),
		Opaque:     rd.Bool(),
		Bounds:     vec.Box(rd.V3(), rd.V3()),
		Threshold:  rd.F64(),
		MaxLeafD:   rd.F64(),
	}
	checkRenderSize(&rd, r.Width, r.Height)
	n := rd.Count(rd.I64(), 28)
	r.Points, r.Density = make([]vec.V3, n), make([]float32, n)
	rd.V3s(r.Points)
	rd.F32s(r.Density)
	if err := rd.Done(); err != nil {
		return nil, err
	}
	return r, nil
}

// renderPartialKernel is the worker body of KernelRenderPartial: it
// rebuilds the frame's camera and default transfer function from the
// shipped parameters, runs the exact local point pass over its slice
// (selection at the global offset, depth-clipped to the slice's own
// bounds), and replies with the compressed partial framebuffer.
func renderPartialKernel() Kernel {
	return func(ctx context.Context, req []byte) ([]byte, error) {
		r, err := decodeRenderPartialRequest(req)
		if err != nil {
			return nil, badRequest(err)
		}
		tf, err := hybrid.DefaultTFParams(r.Threshold, r.MaxLeafD)
		if err != nil {
			return nil, badRequest(err)
		}
		cam, err := render.LookAtBounds(r.Bounds, r.ViewDir, math.Pi/3, float64(r.Width)/float64(r.Height))
		if err != nil {
			return nil, badRequest(err)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fb, err := render.NewFramebuffer(r.Width, r.Height)
		if err != nil {
			return nil, badRequest(err)
		}
		sub := &hybrid.Representation{Points: r.Points, PointDensity: r.Density}
		volren.RenderPointPass(sub, tf, fb, cam, r.PointScale, r.Opaque,
			volren.PointPassOptions{Offset: r.Offset, Clip: true})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return render.AppendPartial(getBytes(0), fb, r.Seq), nil
	}
}

// ComputeRender ships one sub-volume render to the fleet's
// render.partial.v1 kernel and decodes the partial framebuffer it
// sends back — the remote form of the frame's point pass restricted
// to req's slice. The request encodes once, a failed member's
// sub-volume re-ships the identical bytes to a survivor, and the
// decoded partial is bit-identical either way — so a composited frame
// survives worker loss unchanged.
func (f *Fleet) ComputeRender(ctx context.Context, req *RenderPartialRequest) (*render.PartialFrame, error) {
	if len(req.Points) != len(req.Density) {
		return nil, fmt.Errorf("remote: render request has %d points but %d densities", len(req.Points), len(req.Density))
	}
	wire := appendRenderPartialRequest(getBytes(0), req)
	out, err := f.Compute(ctx, wire)
	putBytes(wire)
	if err != nil {
		return nil, err
	}
	pf, err := render.DecompressPartial(out)
	putBytes(out)
	return pf, err
}
