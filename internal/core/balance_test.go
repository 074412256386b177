package core

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/beam"
	"repro/internal/pipeline"
	"repro/internal/remote"
)

// serialWant renders the reference byte streams for frames through the
// serial partition+extract path.
func serialWant(t *testing.T, p *ParticlePipeline, frames []beam.Frame) [][]byte {
	t.Helper()
	var want [][]byte
	local := p.StreamFrames(context.Background(), FrameSliceSource(frames...), StreamOptions{
		PartitionWorkers: 2,
		ExtractWorkers:   2,
	})
	for r := range local.Out {
		want = append(want, r.Rep.AppendBinary(nil))
	}
	if err := local.Wait(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestStreamBalanceBitIdentical: the acceptance bar for the balancer —
// a local stream with self-balancing enabled (aggressive interval, so
// several rebalances land mid-stream) emits byte-for-byte the frames
// of the static run, in order, and cleans up its balancer goroutine.
func TestStreamBalanceBitIdentical(t *testing.T) {
	p, frames := streamFixture(t, 3000)
	p.Extract.Workers = 2
	long := append(frames, frames...)
	long = append(long, frames...)
	long = append(long, frames...) // 12 frames
	want := serialWant(t, p, long)

	before := runtime.NumGoroutine()
	s := p.StreamFrames(context.Background(), FrameSliceSource(long...), StreamOptions{
		// Deliberately mis-provisioned: partition over-staffed, extract
		// starved, so the balancer has real moves to make.
		PartitionWorkers: 4,
		ExtractWorkers:   1,
		Buffer:           2,
		Balance: &BalanceOptions{
			BalancerOptions: pipeline.BalancerOptions{Interval: 2 * time.Millisecond},
		},
	})
	if s.Balancer == nil {
		t.Fatal("Balance set but stream has no balancer")
	}
	got := 0
	for r := range s.Out {
		if r.Index != got {
			t.Fatalf("result %d arrived with index %d (rebalance broke ordering)", got, r.Index)
		}
		if !bytes.Equal(r.Rep.AppendBinary(nil), want[got]) {
			t.Errorf("frame %d: balanced stream differs from static", got)
		}
		got++
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if got != len(long) {
		t.Fatalf("stream emitted %d frames, want %d", got, len(long))
	}
	// The stage table must expose the elastic bounds the balancer used.
	sawElastic := false
	for _, st := range s.Snapshot() {
		if st.Resizable && st.MaxWorkers > st.MinWorkers {
			sawElastic = true
		}
	}
	if !sawElastic {
		t.Error("no elastic stage in the snapshot of a balanced stream")
	}
	noLeaks(t, before)
}

// TestStreamBalancePlacementBitIdentical: with a fleet address AND
// local capacity, the extract stage becomes placement-switchable. The
// test forces flips remote→local→remote at frame boundaries while the
// stream runs; every frame must still be byte-identical to the serial
// run and in order — placement is invisible in the output.
//
// The source is gated two results behind the consumer: frame i enters
// the stream only once result i−2 has been taken. Every flip therefore
// lands with a frame in flight (never on a drained pipeline), and the
// frames after it run on the side it chose — ungated, all twelve could
// be extracted before the first flip, leaving the remote side unrun.
func TestStreamBalancePlacementBitIdentical(t *testing.T) {
	p, frames := streamFixture(t, 3000)
	p.Extract.Workers = 2
	long := append(frames, frames...)
	long = append(long, frames...)
	long = append(long, frames...) // 12 frames
	want := serialWant(t, p, long)

	w, err := remote.NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	before := runtime.NumGoroutine()

	consumed := make(chan struct{}, len(long)) // one token per result taken
	gated := func(ctx context.Context, emit func(beam.Frame) bool) error {
		for i, f := range long {
			if i >= 2 {
				select {
				case <-consumed: // result i−2
				case <-ctx.Done():
					return nil
				}
			}
			if !emit(f) {
				return nil
			}
		}
		return nil
	}
	s := p.StreamFrames(context.Background(), gated, StreamOptions{
		ExtractAddrs:   []string{w.Addr()},
		ExtractWorkers: 2,
		Buffer:         2,
		ExtractPolicy: &remote.FleetOptions{
			Retry:         pipeline.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Jitter: -1},
			ProbeInterval: -1,
		},
		Balance: &BalanceOptions{
			// Long interval: this test drives placement by hand; the
			// balancer just provides the switchable topology.
			BalancerOptions: pipeline.BalancerOptions{Interval: time.Minute},
		},
	})
	pl := s.Pipeline()
	placeable := false
	for _, st := range s.Snapshot() {
		if st.Name == "extract" && st.Placeable {
			placeable = true
		}
	}
	if !placeable {
		t.Fatal("fleet+Balance stream has no placement-switchable extract stage")
	}

	got := 0
	for r := range s.Out {
		if r.Index != got {
			t.Fatalf("result %d arrived with index %d (placement flip broke ordering)", got, r.Index)
		}
		if !bytes.Equal(r.Rep.AppendBinary(nil), want[got]) {
			t.Errorf("frame %d: placement-switched stream differs from serial", got)
		}
		got++
		switch got {
		case 3:
			if !pl.SetStagePlacement("extract", true) {
				t.Error("SetStagePlacement(remote) refused")
			}
		case 6:
			pl.SetStagePlacement("extract", false)
		case 9:
			pl.SetStagePlacement("extract", true)
		}
		consumed <- struct{}{} // after the flip: the next frame sees it
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if got != len(long) {
		t.Fatalf("stream emitted %d frames, want %d", got, len(long))
	}
	// Both sides must actually have run.
	for _, st := range s.Snapshot() {
		if st.Name != "extract" {
			continue
		}
		if st.LocalEWMA <= 0 || st.RemoteEWMA <= 0 {
			t.Errorf("placement sides not both exercised: local=%v remote=%v",
				st.LocalEWMA, st.RemoteEWMA)
		}
		if st.Fallbacks != 0 {
			t.Errorf("%d remote fallbacks against a healthy worker", st.Fallbacks)
		}
	}
	noLeaks(t, before)
}

// TestStreamBalanceQuiescentNoOp: enabling Balance must not change
// results when the chain is already well-provisioned and the balancer
// finds nothing to do.
func TestStreamBalanceQuiescentNoOp(t *testing.T) {
	p, frames := streamFixture(t, 2000)
	p.Extract.Workers = 2
	want := serialWant(t, p, frames)

	s := p.StreamFrames(context.Background(), FrameSliceSource(frames...), StreamOptions{
		PartitionWorkers: 2,
		ExtractWorkers:   2,
		Balance:          &BalanceOptions{},
	})
	got := 0
	for r := range s.Out {
		if !bytes.Equal(r.Rep.AppendBinary(nil), want[got]) {
			t.Errorf("frame %d differs under a quiescent balancer", got)
		}
		got++
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if got != len(frames) {
		t.Fatalf("%d of %d frames", got, len(frames))
	}
}
