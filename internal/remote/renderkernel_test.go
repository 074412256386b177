package remote

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/hybrid"
	"repro/internal/octree"
	"repro/internal/render"
	"repro/internal/vec"
	"repro/internal/volren"
)

// renderRepFixture builds a real hybrid representation (leaf-ordered
// points, genuine bounds and TF parameters) for the render kernel
// tests.
func renderRepFixture(t testing.TB, n int) *hybrid.Representation {
	t.Helper()
	tree, err := octree.Build(testPoints(11, n), octree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := hybrid.Extract(tree, hybrid.ExtractConfig{VolumeRes: 8, Budget: int64(n / 4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) < 16 {
		t.Fatalf("fixture extracted only %d points", len(rep.Points))
	}
	return rep
}

func renderReqFixture(rep *hybrid.Representation, seq, lo, hi int) *RenderPartialRequest {
	return &RenderPartialRequest{
		Width: 72, Height: 64,
		Seq: seq, Offset: lo,
		ViewDir: vec.New(0.4, 0.3, 1), PointScale: 1.5,
		Bounds: rep.Bounds, Threshold: rep.Threshold, MaxLeafD: rep.MaxLeafD,
		Points: rep.Points[lo:hi], Density: rep.PointDensity[lo:hi],
	}
}

// localPointPass renders the request's slice with the plain local
// pass — no depth clip — so a match against the worker's clipped
// partial also proves the clip changed nothing.
func localPointPass(t testing.TB, req *RenderPartialRequest) *render.Framebuffer {
	t.Helper()
	tf, err := hybrid.DefaultTFParams(req.Threshold, req.MaxLeafD)
	if err != nil {
		t.Fatal(err)
	}
	cam, err := render.LookAtBounds(req.Bounds, req.ViewDir, math.Pi/3, float64(req.Width)/float64(req.Height))
	if err != nil {
		t.Fatal(err)
	}
	fb, err := render.NewFramebuffer(req.Width, req.Height)
	if err != nil {
		t.Fatal(err)
	}
	fb.Clear(hybrid.RGBA{})
	sub := &hybrid.Representation{Points: req.Points, PointDensity: req.Density}
	volren.RenderPointPass(sub, tf, fb, cam, req.PointScale, req.Opaque,
		volren.PointPassOptions{Offset: req.Offset})
	return fb
}

func sameFrame(a, b *render.Framebuffer) bool {
	if a.W != b.W || a.H != b.H {
		return false
	}
	for i := range a.Color {
		if math.Float32bits(a.Color[i]) != math.Float32bits(b.Color[i]) {
			return false
		}
	}
	for i := range a.Depth {
		if math.Float32bits(a.Depth[i]) != math.Float32bits(b.Depth[i]) {
			return false
		}
	}
	return true
}

// TestRenderRequestRoundTrip pins the "ACPR" blob: every field
// survives encode/decode exactly, and every corruption class errors
// cleanly.
func TestRenderRequestRoundTrip(t *testing.T) {
	rep := renderRepFixture(t, 2000)
	in := renderReqFixture(rep, 3, 5, len(rep.Points)-7)
	in.Opaque = true
	blob := appendRenderPartialRequest(nil, in)

	out, err := decodeRenderPartialRequest(blob)
	if err != nil {
		t.Fatal(err)
	}
	if out.Width != in.Width || out.Height != in.Height || out.Seq != in.Seq || out.Offset != in.Offset ||
		out.ViewDir != in.ViewDir || out.PointScale != in.PointScale || out.Opaque != in.Opaque ||
		out.Bounds != in.Bounds || out.Threshold != in.Threshold || out.MaxLeafD != in.MaxLeafD {
		t.Errorf("scalar fields mangled:\n got %+v\nwant %+v", out, in)
	}
	if len(out.Points) != len(in.Points) || len(out.Density) != len(in.Density) {
		t.Fatalf("lengths mangled: %d/%d points, %d/%d densities",
			len(out.Points), len(in.Points), len(out.Density), len(in.Density))
	}
	for i := range in.Points {
		if out.Points[i] != in.Points[i] || out.Density[i] != in.Density[i] {
			t.Fatalf("point %d mangled", i)
		}
	}

	for name, data := range map[string][]byte{
		"empty":          {},
		"truncated":      blob[:len(blob)/2],
		"bad magic":      flipByte(blob, 0),
		"bad version":    flipByte(blob, 4),
		"flipped point":  flipByte(blob, len(blob)-4-28*len(in.Points)+12),
		"flipped crc":    flipByte(blob, len(blob)-1),
		"trailing bytes": append(append([]byte(nil), blob...), 0),
	} {
		if _, err := decodeRenderPartialRequest(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestComputeRenderBitIdentical is the kernel acceptance test: the
// worker's partial framebuffers — rendered with the depth clip and
// round-tripped through the "ACPB" codec — must be bit-identical to
// the unclipped local point pass over the same slices, with every
// partition in flight concurrently on one connection, and the whole
// kernel set advertised.
func TestComputeRenderBitIdentical(t *testing.T) {
	w := startWorker(t)
	cli := dial(t, w.Addr())

	kernels, err := cli.Kernels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range kernels {
		if k == KernelRenderPartial {
			found = true
		}
	}
	if !found {
		t.Fatalf("worker advertises %v without %s", kernels, KernelRenderPartial)
	}

	rep := renderRepFixture(t, 3000)
	const parts = 4
	fl := soloFleet(t, w.Addr(), FleetOptions{Kernel: KernelRenderPartial, Window: parts})
	n := len(rep.Points)
	var wg sync.WaitGroup
	errs := make(chan error, parts)
	for k := 0; k < parts; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			req := renderReqFixture(rep, k, k*n/parts, (k+1)*n/parts)
			pf, err := fl.ComputeRender(context.Background(), req)
			if err != nil {
				errs <- fmt.Errorf("partition %d: %w", k, err)
				return
			}
			if pf.Seq != k {
				errs <- fmt.Errorf("partition %d came back tagged %d", k, pf.Seq)
				return
			}
			if !sameFrame(pf.FB, localPointPass(t, req)) {
				errs <- fmt.Errorf("partition %d: remote partial not bit-identical to local pass", k)
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Mismatched slice lengths are rejected client-side.
	bad := renderReqFixture(rep, 0, 0, 10)
	bad.Density = bad.Density[:5]
	if _, err := fl.ComputeRender(context.Background(), bad); err == nil {
		t.Error("mismatched point/density lengths accepted")
	}
}

// TestFleetComputeRenderFailover: a 2-member render fleet whose first
// member's connection resets mid-exchange must finish every partition
// on the survivor, bit-identical — the mid-frame worker-loss half of
// the compositing acceptance criteria, at the partial level.
func TestFleetComputeRenderFailover(t *testing.T) {
	faulty := startWorker(t)
	clean := startWorker(t)
	fl, err := NewFleet([]string{faulty.Addr(), clean.Addr()}, FleetOptions{
		Kernel:        KernelRenderPartial,
		Window:        2,
		Retry:         fastFleetRetry,
		EjectAfter:    1,
		ProbeInterval: -1,
		Dial:          faultyDial(faulty.Addr(), faultPoint{}, faultPoint{kind: faultReset, offset: 4000}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	rep := renderRepFixture(t, 3000)
	const parts = 6
	n := len(rep.Points)
	var wg sync.WaitGroup
	errs := make(chan error, parts)
	for k := 0; k < parts; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			req := renderReqFixture(rep, k, k*n/parts, (k+1)*n/parts)
			pf, err := fl.ComputeRender(context.Background(), req)
			if err != nil {
				errs <- fmt.Errorf("partition %d: %w", k, err)
				return
			}
			if !sameFrame(pf.FB, localPointPass(t, req)) {
				errs <- fmt.Errorf("partition %d: failover partial not bit-identical", k)
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	checkFailover(t, fl)
}

// TestFleetComputeRenderTimeout: a cancelled context aborts an
// in-flight render fan-out promptly.
func TestFleetComputeRenderTimeout(t *testing.T) {
	w := startWorker(t)
	fl, err := NewFleet([]string{w.Addr()}, FleetOptions{
		Kernel: KernelRenderPartial, Window: 1,
		Retry: fastFleetRetry, ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	rep := renderRepFixture(t, 1500)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	if _, err := fl.ComputeRender(ctx, renderReqFixture(rep, 0, 0, len(rep.Points))); err == nil {
		t.Error("expired context rendered without error")
	}
}
