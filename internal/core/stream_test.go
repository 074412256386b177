package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/beam"
	"repro/internal/hybrid"
	"repro/internal/render"
	"repro/internal/seeding"
	"repro/internal/sos"
	"repro/internal/vec"
)

// streamFixture returns a small fixed-seed pipeline and three
// captured frames.
func streamFixture(t *testing.T, n int) (*ParticlePipeline, []beam.Frame) {
	t.Helper()
	p := NewParticlePipeline(n)
	p.Extract.VolumeRes = 16
	sim, err := p.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	var frames []beam.Frame
	for i := 0; i < 3; i++ {
		sim.RunPeriods(2)
		frames = append(frames, sim.Snapshot())
	}
	return p, frames
}

// TestStreamMatchesSerialBitIdentical: the streaming engine must
// produce byte-for-byte the same hybrid representations as the serial
// partition+extract path on a fixed-seed 3-frame run, including with
// multi-worker stages.
func TestStreamMatchesSerialBitIdentical(t *testing.T) {
	p, frames := streamFixture(t, 4000)

	// Serial path: partition + extract one frame at a time.
	var want [][]byte
	for _, f := range frames {
		tree, err := p.Partition(f)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Hybrid(tree)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Write(&buf); err != nil {
			t.Fatal(err)
		}
		want = append(want, buf.Bytes())
	}

	// Streaming path with stage overlap and per-stage workers.
	s := p.StreamFrames(context.Background(), FrameSliceSource(frames...), StreamOptions{
		PartitionWorkers: 3,
		ExtractWorkers:   2,
		Buffer:           2,
	})
	got := 0
	for r := range s.Out {
		if r.Index != got {
			t.Fatalf("result %d arrived with index %d (order violated)", got, r.Index)
		}
		var buf bytes.Buffer
		if err := r.Rep.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want[got]) {
			t.Errorf("frame %d: streaming representation differs from serial (%d vs %d bytes)",
				got, buf.Len(), len(want[got]))
		}
		got++
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if got != len(frames) {
		t.Fatalf("stream emitted %d frames, want %d", got, len(frames))
	}
}

// TestStreamFromSim drives the stream from a live simulation source
// with rendering enabled and checks the per-frame outputs.
func TestStreamFromSim(t *testing.T) {
	p := NewParticlePipeline(3000)
	p.Extract.VolumeRes = 8
	sim, err := p.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	s := p.StreamFrames(context.Background(), SimSource(sim, 3, 1), StreamOptions{
		KeepFrames: true,
		KeepTrees:  true,
		Render:     &RenderOptions{Width: 48, Height: 48},
	})
	n := 0
	for r := range s.Out {
		if r.Frame.E == nil {
			t.Fatal("KeepFrames did not retain the ensemble")
		}
		if r.Tree == nil {
			t.Fatal("KeepTrees did not retain the tree")
		}
		if r.Rep == nil || r.Rep.NumPoints() == 0 {
			t.Fatal("no hybrid representation extracted")
		}
		if r.FB == nil || r.FB.CoveredPixels(0.005) == 0 {
			t.Fatal("render stage produced a black frame")
		}
		s.RecycleFB(r.FB)
		n++
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("got %d frames, want 3", n)
	}
}

// TestStreamSkipExtract: the partition-only stream (the paper's
// partitioning program) keeps trees and skips representations.
func TestStreamSkipExtract(t *testing.T) {
	p, frames := streamFixture(t, 2000)
	s := p.StreamFrames(context.Background(), FrameSliceSource(frames...), StreamOptions{
		SkipExtract: true,
	})
	n := 0
	for r := range s.Out {
		if r.Tree == nil {
			t.Fatal("partition-only stream dropped the tree")
		}
		if r.Rep != nil {
			t.Fatal("partition-only stream extracted anyway")
		}
		n++
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if n != len(frames) {
		t.Fatalf("got %d frames, want %d", n, len(frames))
	}
}

// TestStreamRenderRequiresExtract: Render with SkipExtract is a
// contradiction and must fail the stream instead of silently emitting
// nil framebuffers.
func TestStreamRenderRequiresExtract(t *testing.T) {
	p, frames := streamFixture(t, 2000)
	s := p.StreamFrames(context.Background(), FrameSliceSource(frames...), StreamOptions{
		SkipExtract: true,
		Render:      &RenderOptions{Width: 32, Height: 32},
	})
	for range s.Out {
		t.Fatal("contradictory stream emitted a frame")
	}
	if err := s.Wait(); err == nil {
		t.Fatal("Render+SkipExtract accepted")
	}
}

// TestStreamCancellation: aborting a stream mid-frame returns promptly
// and leaves no goroutines behind.
func TestStreamCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	p := NewParticlePipeline(2000)
	p.Extract.VolumeRes = 8
	sim, err := p.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	// A long stream we will abandon after one frame.
	s := p.StreamFrames(context.Background(), SimSource(sim, 1000, 1), StreamOptions{
		PartitionWorkers: 2,
		ExtractWorkers:   2,
		Buffer:           2,
	})
	if _, ok := <-s.Out; !ok {
		t.Fatal("stream closed before first frame")
	}
	s.Cancel()

	done := make(chan error, 1)
	go func() { done <- s.Wait() }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not return promptly after Cancel")
	}

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after cancel", before, runtime.NumGoroutine())
}

// TestProcessFrameWrapsStream: the one-shot path must agree with an
// explicitly streamed run (it is the same code).
func TestProcessFrameWrapsStream(t *testing.T) {
	p, frames := streamFixture(t, 2000)
	rep, err := p.ProcessFrame(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	s := p.StreamFrames(context.Background(), FrameSliceSource(frames[0]), StreamOptions{})
	var streamed *hybrid.Representation
	for r := range s.Out {
		streamed = r.Rep
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := rep.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := streamed.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("ProcessFrame and StreamFrames disagree")
	}
}

// TestFieldStream runs the solve → trace → render chain as a stream.
func TestFieldStream(t *testing.T) {
	p := NewFieldPipeline(6, 10)
	s, err := p.StreamSolve(context.Background(), FieldStreamOptions{
		Frames:          2,
		PeriodsPerFrame: 1,
		TraceWorkers:    2,
		TraceB:          true,
		Render:          &FieldRenderOptions{Technique: sos.TechSOS, Width: 48, Height: 48},
	})
	if err != nil {
		t.Fatal(err)
	}
	var lastTime float64
	n := 0
	for r := range s.Out {
		if r.Index != n {
			t.Fatalf("frame %d arrived with index %d", n, r.Index)
		}
		if r.Frame.Time <= lastTime {
			t.Errorf("frame %d time %g did not advance past %g", n, r.Frame.Time, lastTime)
		}
		lastTime = r.Frame.Time
		if r.E == nil || len(r.E.Lines) == 0 {
			t.Fatal("no electric lines traced")
		}
		if r.B == nil || len(r.B.Lines) == 0 {
			t.Fatal("no magnetic lines traced")
		}
		if r.FB == nil || r.Stats.Triangles == 0 {
			t.Fatal("render stage drew nothing")
		}
		n++
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("got %d frames, want 2", n)
	}
}

// TestFieldStreamMatchesSerial: the §3 stream is the serial chain.
// Every frame StreamSolve delivers — the picture's colour and depth
// bits, the render statistics, and every traced line's points, tangents
// and strengths — equals what the one-frame-at-a-time loop
// AdvancePeriods → Snapshot → TraceE → RenderLines produces from a fresh
// solver, at every trace and render stage worker count.
func TestFieldStreamMatchesSerial(t *testing.T) {
	const (
		cells, lines, frames = 6, 40, 4
		periods              = 0.5
		size                 = 96
	)
	view := vec.New(0.8, 0.45, 0.9)

	type serialFrame struct {
		res   *seeding.Result
		fb    *render.Framebuffer
		stats sos.Stats
	}
	ref := NewFieldPipeline(cells, lines)
	if _, err := ref.Solve(0); err != nil { // builds the solver, advances nothing
		t.Fatal(err)
	}
	if ref.Sim().Step() != 0 {
		t.Fatalf("Solve(0) advanced the solver to step %d", ref.Sim().Step())
	}
	var want []serialFrame
	for i := 0; i < frames; i++ {
		ref.Sim().AdvancePeriods(periods)
		res, err := ref.TraceE(ref.Sim().Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		fb, st, err := ref.RenderLines(res.Lines, sos.TechSOS, size, size, view)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Lines) == 0 || st.Fragments == 0 {
			t.Fatalf("serial frame %d: %d lines, %d fragments", i, len(res.Lines), st.Fragments)
		}
		want = append(want, serialFrame{res, fb, st})
	}

	bits3 := func(a, b vec.V3) bool {
		return math.Float64bits(a.X) == math.Float64bits(b.X) &&
			math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
			math.Float64bits(a.Z) == math.Float64bits(b.Z)
	}
	for _, traceWorkers := range []int{1, 2} {
		for _, renderWorkers := range []int{1, 2} {
			label := fmt.Sprintf("trace=%d/render=%d", traceWorkers, renderWorkers)
			p := NewFieldPipeline(cells, lines)
			s, err := p.StreamSolve(context.Background(), FieldStreamOptions{
				Frames: frames, PeriodsPerFrame: periods, TraceWorkers: traceWorkers, Buffer: 2,
				Render: &FieldRenderOptions{Technique: sos.TechSOS, Width: size, Height: size, ViewDir: view, Workers: renderWorkers},
			})
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for r := range s.Out {
				if r.Index != n || n >= frames {
					t.Fatalf("%s: frame %d arrived as number %d", label, r.Index, n)
				}
				w := want[n]
				n++
				if r.Stats.Triangles != w.stats.Triangles || r.Stats.Fragments != w.stats.Fragments || r.Stats.Lines != w.stats.Lines {
					t.Errorf("%s frame %d: %d lines / %d triangles / %d fragments, serial %d / %d / %d", label, r.Index,
						r.Stats.Lines, r.Stats.Triangles, r.Stats.Fragments, w.stats.Lines, w.stats.Triangles, w.stats.Fragments)
				}
				for i := range w.fb.Color {
					if math.Float32bits(r.FB.Color[i]) != math.Float32bits(w.fb.Color[i]) {
						t.Fatalf("%s frame %d: color[%d] = %v, serial %v", label, r.Index, i, r.FB.Color[i], w.fb.Color[i])
					}
				}
				for i := range w.fb.Depth {
					if math.Float32bits(r.FB.Depth[i]) != math.Float32bits(w.fb.Depth[i]) {
						t.Fatalf("%s frame %d: depth[%d] = %v, serial %v", label, r.Index, i, r.FB.Depth[i], w.fb.Depth[i])
					}
				}
				if len(r.E.Lines) != len(w.res.Lines) {
					t.Fatalf("%s frame %d: %d lines, serial %d", label, r.Index, len(r.E.Lines), len(w.res.Lines))
				}
				for li, l := range r.E.Lines {
					wl := w.res.Lines[li]
					if l.NumPoints() != wl.NumPoints() || len(l.Tangents) != len(wl.Tangents) ||
						len(l.Strengths) != len(wl.Strengths) || l.Closed != wl.Closed ||
						r.E.SeedElement[li] != w.res.SeedElement[li] {
						t.Fatalf("%s frame %d line %d: shape or seed differs from serial", label, r.Index, li)
					}
					for i := range l.Points {
						if !bits3(l.Points[i], wl.Points[i]) || !bits3(l.Tangents[i], wl.Tangents[i]) ||
							math.Float64bits(l.Strengths[i]) != math.Float64bits(wl.Strengths[i]) {
							t.Fatalf("%s frame %d line %d sample %d differs from serial", label, r.Index, li, i)
						}
					}
				}
			}
			if err := s.Wait(); err != nil {
				t.Fatal(err)
			}
			if n != frames {
				t.Fatalf("%s: %d frames, want %d", label, n, frames)
			}
		}
	}
}

// TestFieldStreamValidation rejects degenerate options.
func TestFieldStreamValidation(t *testing.T) {
	p := NewFieldPipeline(6, 5)
	if _, err := p.StreamSolve(context.Background(), FieldStreamOptions{Frames: 0, PeriodsPerFrame: 1}); err == nil {
		t.Error("Frames=0 accepted")
	}
	if _, err := p.StreamSolve(context.Background(), FieldStreamOptions{Frames: 1, PeriodsPerFrame: 0}); err == nil {
		t.Error("PeriodsPerFrame=0 accepted")
	}
}
