package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/hybrid"
	"repro/internal/pipeline"
	"repro/internal/remote"
	"repro/internal/render"
	"repro/internal/vec"
)

// TestSplitPoints: cuts are ascending, cover the whole range at every
// partition count, and snap to density-change boundaries when one is
// near.
func TestSplitPoints(t *testing.T) {
	// 40 points in runs of 10: density changes at 10, 20, 30.
	density := make([]float32, 40)
	for i := range density {
		density[i] = float32(i / 10)
	}
	for _, parts := range []int{1, 2, 3, 4, 8, 40} {
		cuts := splitPoints(density, parts)
		if len(cuts) != parts+1 || cuts[0] != 0 || cuts[parts] != len(density) {
			t.Fatalf("parts=%d: cuts %v do not cover the range", parts, cuts)
		}
		for k := 1; k <= parts; k++ {
			if cuts[k] < cuts[k-1] {
				t.Fatalf("parts=%d: cuts %v not monotonic", parts, cuts)
			}
		}
	}
	// The even 4-way cuts (10, 20, 30) are already boundaries; a 2-way
	// cut at 20 is too. Both must land exactly there.
	if cuts := splitPoints(density, 4); cuts[1] != 10 || cuts[2] != 20 || cuts[3] != 30 {
		t.Errorf("4-way cuts %v, want boundary-aligned [0 10 20 30 40]", cuts)
	}
	// Uniform density: no boundary to snap to, cuts stay even.
	uniform := make([]float32, 30)
	if cuts := splitPoints(uniform, 3); cuts[1] != 10 || cuts[2] != 20 {
		t.Errorf("uniform cuts %v, want even [0 10 20 30]", cuts)
	}
	// Empty frame: all cuts zero, no panic.
	if cuts := splitPoints(nil, 3); cuts[3] != 0 {
		t.Errorf("empty cuts %v", cuts)
	}
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

// TestStreamDistributedRenderBitIdentical is the tentpole acceptance
// test: a stream whose render stage fans sub-volume renders across a
// worker fleet must produce framebuffers bit-identical to the local
// render stage AND to the one-shot single-node RenderFrame, at every
// partition count.
func TestStreamDistributedRenderBitIdentical(t *testing.T) {
	p, frames := streamFixture(t, 3000)
	ro := RenderOptions{Width: 96, Height: 96, Workers: 2}

	// Local reference: FBs plus the reps for the RenderFrame check.
	var want []*render.Framebuffer
	var reps []*hybrid.Representation
	local := p.StreamFrames(context.Background(), FrameSliceSource(frames...), StreamOptions{
		Render: &ro,
	})
	for r := range local.Out {
		want = append(want, r.FB)
		reps = append(reps, r.Rep)
	}
	if err := local.Wait(); err != nil {
		t.Fatal(err)
	}

	// The stream's render stage must itself match the one-shot
	// single-node path before we compare the distributed one to it.
	tf, err := DefaultTF(reps[0])
	if err != nil {
		t.Fatal(err)
	}
	still, _, _, err := RenderFrame(reps[0], tf, ro.Width, ro.Height, vec.New(0.4, 0.3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !sameFrame(want[0], still) {
		t.Fatal("local stream render differs from single-node RenderFrame")
	}

	w1 := startRenderWorker(t)
	w2 := startRenderWorker(t)
	for _, tc := range []struct {
		name       string
		addrs      []string
		partitions int
	}{
		{"1 worker, 1 partition", []string{w1.Addr()}, 1},
		{"1 worker, 4 partitions", []string{w1.Addr()}, 4},
		{"2 workers, 2 partitions", []string{w1.Addr(), w2.Addr()}, 0},
		{"2 workers, 8 partitions", []string{w1.Addr(), w2.Addr()}, 8},
	} {
		dro := ro
		dro.Partitions = tc.partitions
		s := p.StreamFrames(context.Background(), FrameSliceSource(frames...), StreamOptions{
			Render:      &dro,
			RenderAddrs: tc.addrs,
			Buffer:      2,
		})
		got := 0
		for r := range s.Out {
			if r.Index != got {
				t.Fatalf("%s: frame %d arrived with index %d", tc.name, got, r.Index)
			}
			if r.Rast != nil {
				t.Errorf("%s: distributed render materialized a local rasterizer", tc.name)
			}
			if r.VR == nil {
				t.Errorf("%s: frame %d missing volume renderer stats", tc.name, got)
			}
			if !sameFrame(r.FB, want[got]) {
				t.Errorf("%s: frame %d not bit-identical to local render", tc.name, got)
			}
			s.RecycleFB(r.FB)
			got++
		}
		if err := s.Wait(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != len(frames) {
			t.Fatalf("%s: %d frames, want %d", tc.name, got, len(frames))
		}
	}
}

// TestStreamRenderNonSquare: at a wide and a tall framebuffer, on both
// placements, every frame of the render stage equals the one-shot
// RenderFrame at that size bit for bit, so the camera's aspect ratio
// (width over height) is the one RenderFrame uses.
func TestStreamRenderNonSquare(t *testing.T) {
	p, frames := streamFixture(t, 2000)
	w := startRenderWorker(t)
	for _, tc := range []struct {
		w, h  int
		addrs []string
	}{
		{95, 61, nil},
		{61, 95, nil},
		{95, 61, []string{w.Addr()}},
		{61, 95, []string{w.Addr()}},
	} {
		name := fmt.Sprintf("%dx%d, %d render workers", tc.w, tc.h, len(tc.addrs))
		s := p.StreamFrames(context.Background(), FrameSliceSource(frames...), StreamOptions{
			Render:      &RenderOptions{Width: tc.w, Height: tc.h, Partitions: 2},
			RenderAddrs: tc.addrs,
		})
		got := 0
		for r := range s.Out {
			tf, err := DefaultTF(r.Rep)
			if err != nil {
				t.Fatal(err)
			}
			still, _, _, err := RenderFrame(r.Rep, tf, tc.w, tc.h, vec.New(0.4, 0.3, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !sameFrame(r.FB, still) {
				t.Errorf("%s: frame %d differs from RenderFrame", name, r.Index)
			}
			got++
		}
		if err := s.Wait(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != len(frames) {
			t.Fatalf("%s: %d frames, want %d", name, got, len(frames))
		}
	}
}

func startRenderWorker(t *testing.T) *remote.Worker {
	t.Helper()
	w, err := remote.NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// TestStreamDistributedRenderWorkerLoss: killing a render worker
// mid-stream must not change a single pixel — the lost partitions
// re-dispatch to the survivors and every composited frame stays
// bit-identical to the local render.
func TestStreamDistributedRenderWorkerLoss(t *testing.T) {
	p, frames := streamFixture(t, 2500)
	long := append(frames, frames...)
	long = append(long, frames...) // 9 frames
	ro := RenderOptions{Width: 80, Height: 80, Workers: 2, Partitions: 4}

	var want []*render.Framebuffer
	local := p.StreamFrames(context.Background(), FrameSliceSource(long...), StreamOptions{Render: &ro})
	for r := range local.Out {
		want = append(want, r.FB)
	}
	if err := local.Wait(); err != nil {
		t.Fatal(err)
	}

	workers := make([]*remote.Worker, 3)
	addrs := make([]string, 3)
	for i := range workers {
		workers[i] = startRenderWorker(t)
		addrs[i] = workers[i].Addr()
	}
	before := runtime.NumGoroutine()

	s := p.StreamFrames(context.Background(), FrameSliceSource(long...), StreamOptions{
		Render:      &ro,
		RenderAddrs: addrs,
		Buffer:      2,
		RenderPolicy: &remote.FleetOptions{
			Retry:         pipeline.RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Jitter: -1},
			EjectAfter:    1,
			ProbeInterval: -1,
		},
	})
	got := 0
	for r := range s.Out {
		if !sameFrame(r.FB, want[got]) {
			t.Errorf("frame %d not bit-identical across worker loss", got)
		}
		s.RecycleFB(r.FB)
		got++
		if got == 2 {
			// Kill a member mid-stream, with partitions in flight on it.
			workers[0].Close()
		}
	}
	if err := s.Wait(); err != nil {
		t.Fatalf("Wait = %v after losing one of three render workers", err)
	}
	if got != len(long) {
		t.Fatalf("stream emitted %d frames, want %d", got, len(long))
	}
	noLeaks(t, before)
}

// TestStreamRenderAddrsValidation: RenderAddrs without a render stage
// is rejected, and a dead render worker address fails the stream at
// startup with a dial error.
func TestStreamRenderAddrsValidation(t *testing.T) {
	p, frames := streamFixture(t, 500)

	s := p.StreamFrames(context.Background(), FrameSliceSource(frames...), StreamOptions{
		RenderAddrs: []string{"127.0.0.1:1"},
	})
	for range s.Out {
		t.Error("RenderAddrs without Render emitted output")
	}
	if err := s.Wait(); err == nil || !strings.Contains(err.Error(), "set Render") {
		t.Errorf("Wait = %v, want missing-Render validation error", err)
	}

	w := startRenderWorker(t)
	addr := w.Addr()
	w.Close()
	s = p.StreamFrames(context.Background(), FrameSliceSource(frames...), StreamOptions{
		Render:      &RenderOptions{Width: 32, Height: 32},
		RenderAddrs: []string{addr},
	})
	for range s.Out {
		t.Error("stream emitted a frame despite a dead render worker address")
	}
	if err := s.Wait(); err == nil || !strings.Contains(err.Error(), "dialing render worker") {
		t.Errorf("Wait = %v, want render dial failure", err)
	}
}
