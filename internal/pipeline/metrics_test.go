package pipeline

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestStageConfigValidation pins the satellite contract: the engine
// rejects configs it used to paper over, failing the pipeline with a
// named-stage error instead of silently running one worker.
func TestStageConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  StageConfig
		want string
	}{
		{"zero workers", StageConfig{Name: "z"}, "Workers must be >= 1"},
		{"negative workers", StageConfig{Name: "n", Workers: -2}, "Workers must be >= 1"},
		{"negative buf", StageConfig{Name: "b", Workers: 1, Buf: -1}, "Buf must be >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := New(context.Background())
			out := Map(p, FromSlice(p, 1, []int{1, 2}), tc.cfg,
				func(_ context.Context, v int) (int, error) { return v, nil })
			for range out {
			}
			err := p.Wait()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Wait() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestSnapshotTelemetry runs a chain with a deliberately slow sink and
// checks the snapshot table: chain order, kinds, in-flight/done
// accounting, a critical-path mark on the bottleneck, and the final
// all-finished state.
func TestSnapshotTelemetry(t *testing.T) {
	p := New(context.Background())
	const frames = 40
	src := FromSlice(p, 1, make([]int, frames))
	mapped := Map(p, src, StageConfig{Name: "work", Workers: 1},
		func(_ context.Context, v int) (int, error) {
			time.Sleep(200 * time.Microsecond)
			return v, nil
		})
	Sink(p, mapped, "drain", func(_ context.Context, v int) error {
		// Far above timer granularity so the bottleneck is unambiguous.
		time.Sleep(4 * time.Millisecond)
		return nil
	})

	time.Sleep(50 * time.Millisecond)
	snap := p.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("%d stages in snapshot, want 3", len(snap))
	}
	wantNames := []string{"source", "work", "drain"}
	wantKinds := []StageKind{KindSource, KindMap, KindSink}
	for i, s := range snap {
		if s.Name != wantNames[i] || s.Kind != wantKinds[i] {
			t.Errorf("stage %d = %s/%s, want %s/%s", i, s.Name, s.Kind, wantNames[i], wantKinds[i])
		}
	}
	if !snap[2].Critical {
		t.Errorf("critical stage not the slow sink: %+v", snap)
	}
	if snap[2].ServiceEWMA < 2*time.Millisecond {
		t.Errorf("sink service EWMA %v, want >= 2ms", snap[2].ServiceEWMA)
	}
	if snap[1].Done == 0 || snap[1].Throughput <= 0 {
		t.Errorf("map stage shows no progress mid-run: done=%d tput=%g", snap[1].Done, snap[1].Throughput)
	}

	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	final := p.Snapshot()
	for _, s := range final {
		if !s.Finished {
			t.Errorf("stage %s not finished after Wait", s.Name)
		}
		if s.Done != frames {
			t.Errorf("stage %s done=%d, want %d", s.Name, s.Done, frames)
		}
		if s.InFlight != 0 {
			t.Errorf("stage %s in-flight=%d after drain", s.Name, s.InFlight)
		}
	}
}
