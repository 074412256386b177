package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/beam"
	"repro/internal/pipeline"
	"repro/internal/remote"
)

// noLeaks polls until the goroutine count falls back to the baseline,
// failing the test if pipeline or client goroutines outlive the
// stream.
func noLeaks(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestStreamRemoteExtractBitIdentical is the integration acceptance
// test of the distributed stage path: StreamFrames with ExtractAddrs
// pointed at an in-process worker must produce byte-for-byte the
// representations of the all-local run, in frame order, with several
// frames in flight on the worker connection.
func TestStreamRemoteExtractBitIdentical(t *testing.T) {
	p, frames := streamFixture(t, 4000)

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

	w, err := remote.NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	s := p.StreamFrames(context.Background(), FrameSliceSource(frames...), StreamOptions{
		ExtractAddrs:   []string{w.Addr()},
		ExtractWorkers: 3, // frames in flight across the wire
		Buffer:         2,
	})
	got := 0
	for r := range s.Out {
		if r.Index != got {
			t.Fatalf("result %d arrived with index %d (order violated)", got, r.Index)
		}
		if r.Tree != nil {
			t.Error("distributed stage materialized a local tree")
		}
		if !bytes.Equal(r.Rep.AppendBinary(nil), want[got]) {
			t.Errorf("frame %d: distributed extraction differs from local", got)
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

// TestStreamRemoteExtractDialFailure: a bad worker address fails the
// stream promptly — Wait reports the dial error, Out closes, no
// goroutine survives.
func TestStreamRemoteExtractDialFailure(t *testing.T) {
	before := runtime.NumGoroutine()
	p, frames := streamFixture(t, 500)
	// A port nothing listens on: bind one, close it, reuse the address.
	w, err := remote.NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := w.Addr()
	w.Close()

	s := p.StreamFrames(context.Background(), FrameSliceSource(frames...), StreamOptions{ExtractAddrs: []string{addr}})
	for range s.Out {
		t.Error("stream emitted a frame despite a dead worker address")
	}
	err = s.Wait()
	if err == nil || !strings.Contains(err.Error(), "dialing extract worker") {
		t.Fatalf("Wait = %v, want dial failure", err)
	}
	noLeaks(t, before)
}

// TestStreamRemoteExtractWorkerCrash: the worker dying mid-stream
// propagates through the pipeline's first-error drain — Wait errors,
// every stage unwinds, nothing leaks.
func TestStreamRemoteExtractWorkerCrash(t *testing.T) {
	before := runtime.NumGoroutine()
	p, frames := streamFixture(t, 2000)
	w, err := remote.NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	long := append(frames, frames...)
	long = append(long, frames...) // 9 frames
	s := p.StreamFrames(context.Background(), FrameSliceSource(long...), StreamOptions{
		ExtractAddrs:   []string{w.Addr()},
		ExtractWorkers: 2,
	})
	// Take one good frame, then kill the worker under the stream.
	if _, ok := <-s.Out; !ok {
		t.Fatal("stream produced nothing before the crash")
	}
	w.Close()
	for range s.Out {
	}
	if err := s.Wait(); err == nil {
		t.Fatal("Wait returned nil after the worker crashed mid-stream")
	}
	noLeaks(t, before)
}

// TestStreamRemoteExtractCancel: cancelling the caller's context
// aborts a distributed stream promptly even with requests in flight.
func TestStreamRemoteExtractCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	p, frames := streamFixture(t, 2000)
	w, err := remote.NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	ctx, cancel := context.WithCancel(context.Background())
	long := append(frames, frames...)
	long = append(long, frames...)
	s := p.StreamFrames(ctx, FrameSliceSource(long...), StreamOptions{
		ExtractAddrs:   []string{w.Addr()},
		ExtractWorkers: 2,
	})
	<-s.Out // at least one frame through, requests in flight behind it
	cancel()

	done := make(chan error, 1)
	go func() { done <- s.Wait() }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait hung after cancellation")
	}
	w.Close() // retire the worker's accept loop before counting
	noLeaks(t, before)
}

// TestStreamRemoteExtractOptionValidation: the incompatible option
// combinations fail fast with a clear error instead of starting a
// half-configured stream.
func TestStreamRemoteExtractOptionValidation(t *testing.T) {
	p, frames := streamFixture(t, 500)
	for name, opts := range map[string]StreamOptions{
		"skip extract": {ExtractAddrs: []string{"127.0.0.1:1"}, SkipExtract: true},
		"keep trees":   {ExtractAddrs: []string{"127.0.0.1:1"}, KeepTrees: true},
	} {
		s := p.StreamFrames(context.Background(), FrameSliceSource(frames...), opts)
		for range s.Out {
			t.Errorf("%s: stream emitted output", name)
		}
		if err := s.Wait(); err == nil {
			t.Errorf("%s: invalid options accepted", name)
		}
	}
}

// TestStreamFleetExtractSurvivesWorkerLoss is the fleet acceptance
// test: a 3-worker fleet stream loses one worker mid-run and still
// delivers every frame, in order, byte-for-byte identical to the
// all-local run — the failover is invisible in the output.
func TestStreamFleetExtractSurvivesWorkerLoss(t *testing.T) {
	p, frames := streamFixture(t, 3000)
	long := append(frames, frames...)
	long = append(long, frames...)
	long = append(long, frames...) // 12 frames

	var want [][]byte
	local := p.StreamFrames(context.Background(), FrameSliceSource(long...), StreamOptions{
		PartitionWorkers: 2,
		ExtractWorkers:   2,
	})
	for r := range local.Out {
		want = append(want, r.Rep.AppendBinary(nil))
	}
	if err := local.Wait(); err != nil {
		t.Fatal(err)
	}

	workers := make([]*remote.Worker, 3)
	addrs := make([]string, 3)
	for i := range workers {
		w, err := remote.NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		workers[i], addrs[i] = w, w.Addr()
	}
	before := runtime.NumGoroutine() // workers up, stream not yet started

	s := p.StreamFrames(context.Background(), FrameSliceSource(long...), StreamOptions{
		ExtractAddrs:   addrs,
		ExtractWorkers: 2,
		Buffer:         2,
		ExtractPolicy: &remote.FleetOptions{
			Retry:         pipeline.RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Jitter: -1},
			EjectAfter:    1,
			ProbeInterval: -1,
		},
	})
	got := 0
	for r := range s.Out {
		if r.Index != got {
			t.Fatalf("result %d arrived with index %d (order violated across failover)", got, r.Index)
		}
		if !bytes.Equal(r.Rep.AppendBinary(nil), want[got]) {
			t.Errorf("frame %d: fleet extraction differs from local", got)
		}
		got++
		if got == 2 {
			// Kill a member with the stream mid-flight; its frames must
			// re-dispatch to the survivors.
			workers[0].Close()
		}
	}
	if err := s.Wait(); err != nil {
		t.Fatalf("Wait = %v after losing one of three workers", err)
	}
	if got != len(long) {
		t.Fatalf("stream emitted %d frames, want %d (frames lost in failover)", got, len(long))
	}
	noLeaks(t, before)
}

// TestStreamFleetAllWorkersDown: when every fleet member dies the
// stream fails cleanly once the retry policy is spent — no hang, no
// leaked stage.
func TestStreamFleetAllWorkersDown(t *testing.T) {
	p, frames := streamFixture(t, 1000)
	w1, err := remote.NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w2, err := remote.NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	long := append(frames, frames...) // 6 frames
	// The source holds frames 1-5 back until the fleet is down: however
	// fast the stages are, those frames meet a dead fleet.
	outage := make(chan struct{})
	source := func(ctx context.Context, emit func(beam.Frame) bool) error {
		for i, f := range long {
			if i == 1 {
				select {
				case <-outage:
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
	s := p.StreamFrames(context.Background(), source, StreamOptions{
		ExtractAddrs:   []string{w1.Addr(), w2.Addr()},
		ExtractWorkers: 2,
		ExtractPolicy: &remote.FleetOptions{
			Retry:         pipeline.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Jitter: -1},
			EjectAfter:    1,
			ProbeInterval: -1,
		},
	})
	if _, ok := <-s.Out; !ok {
		t.Fatal("stream produced nothing before the outage")
	}
	w1.Close()
	w2.Close()
	close(outage)
	for range s.Out {
	}
	if err := s.Wait(); err == nil {
		t.Fatal("Wait returned nil after the whole fleet died")
	}
	noLeaks(t, before)
}

// TestStreamExtractAddrsValidation: a fleet of several members has the
// incompatibilities of a fleet of one.
func TestStreamExtractAddrsValidation(t *testing.T) {
	p, frames := streamFixture(t, 500)
	for name, opts := range map[string]StreamOptions{
		"skip extract": {ExtractAddrs: []string{"127.0.0.1:1", "127.0.0.1:2"}, SkipExtract: true},
		"keep trees":   {ExtractAddrs: []string{"127.0.0.1:1", "127.0.0.1:2"}, KeepTrees: true},
	} {
		s := p.StreamFrames(context.Background(), FrameSliceSource(frames...), opts)
		for range s.Out {
			t.Errorf("%s: stream emitted output", name)
		}
		if err := s.Wait(); err == nil {
			t.Errorf("%s: invalid options accepted", name)
		}
	}
}
