package core

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/beam"
	"repro/internal/hybrid"
	"repro/internal/octree"
	"repro/internal/pario"
	"repro/internal/vec"
)

// recycleFixture returns a pipeline and twelve frames of four different
// sizes, so a recycled ensemble, builder or tree is refilled both
// smaller and larger than it last was. The phase plot makes the plotted
// columns differ from the first three.
func recycleFixture(t *testing.T) (*ParticlePipeline, []beam.Frame) {
	t.Helper()
	p := NewParticlePipeline(5000)
	p.Extract.VolumeRes = 8
	p.Extract.Budget = 300
	p.Axes = [3]beam.Axis{beam.AxisX, beam.AxisPX, beam.AxisY}
	var frames []beam.Frame
	for i, n := range []int{5000, 900, 3100, 5000, 700, 2600, 4100, 900, 5000, 3100, 650, 4800} {
		cfg := p.Sim
		cfg.N, cfg.Seed = n, int64(100+i)
		sim, err := beam.NewSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim.RunPeriods(1)
		frames = append(frames, sim.Snapshot())
	}
	return p, frames
}

// serialFrame is the specification a stream is held to: the frame
// projected point by point, the one-shot octree.Build, hybrid.Extract.
func serialFrame(t *testing.T, p *ParticlePipeline, f beam.Frame) (*octree.Tree, *hybrid.Representation) {
	t.Helper()
	pts := make([]vec.V3, f.E.Len())
	for i := range pts {
		pts[i] = f.E.Point3(i, p.Axes)
	}
	tree, err := octree.Build(pts, p.Tree)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := hybrid.Extract(tree, p.Extract)
	if err != nil {
		t.Fatal(err)
	}
	return tree, rep
}

func cloneFrames(frames []beam.Frame) []beam.Frame {
	out := make([]beam.Frame, len(frames))
	for i, f := range frames {
		out[i] = beam.Frame{Step: f.Step, S: f.S, E: f.E.Clone()}
	}
	return out
}

// collect drains a stream, inspecting nothing until every frame has
// flowed: what a result retains must survive all the recycling behind it.
func collect(t *testing.T, s *ParticleStream, want int) []StreamResult {
	t.Helper()
	var out []StreamResult
	for r := range s.Out {
		out = append(out, r)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(out) != want {
		t.Fatalf("got %d frames, want %d", len(out), want)
	}
	return out
}

// TestStreamRecyclingLeavesCallerData: a stream recycles only storage it
// lent and nobody else holds. The caller's frames pass through
// untouched; a frame a source fills into a lent ensemble is whole when
// the source emits it; whatever the stream hands the consumer (trees
// under SkipExtract, representations otherwise) still equals the
// serial result after all later frames have flowed; a cancelled stream
// leaks nothing, and the pipeline streams bit-identically again
// afterwards.
func TestStreamRecyclingLeavesCallerData(t *testing.T) {
	p, frames := recycleFixture(t)
	pristine := cloneFrames(frames)
	wantTrees := make([]*octree.Tree, len(frames))
	wantReps := make([]*hybrid.Representation, len(frames))
	for i, f := range frames {
		wantTrees[i], wantReps[i] = serialFrame(t, p, f)
	}
	dir := t.TempDir()
	paths := make([]string, len(frames))
	for i, f := range frames {
		paths[i] = filepath.Join(dir, fmt.Sprintf("f%02d.acpf", i))
		if err := pario.WriteFrameFile(paths[i], f); err != nil {
			t.Fatal(err)
		}
	}
	busy := StreamOptions{PartitionWorkers: 3, ExtractWorkers: 2, Buffer: 2}
	// Every stream takes each ensemble back once the frame is
	// partitioned, so no result carries one.
	check := func(name string, got []StreamResult, tree, rep bool) {
		t.Helper()
		for i, r := range got {
			if r.Index != i {
				t.Fatalf("%s: result %d has index %d", name, i, r.Index)
			}
			if r.Frame.E != nil || (r.Tree != nil) != tree || (r.Rep != nil) != rep {
				t.Fatalf("%s: frame %d retains ensemble %v, tree %v, rep %v", name, i, r.Frame.E != nil, r.Tree != nil, r.Rep != nil)
			}
			if tree && !reflect.DeepEqual(r.Tree, wantTrees[i]) {
				t.Errorf("%s: frame %d's retained tree differs from the serial partition", name, i)
			}
			if rep && !reflect.DeepEqual(r.Rep, wantReps[i]) {
				t.Errorf("%s: frame %d's representation differs from the serial one", name, i)
			}
		}
	}

	// The caller's frames: every list is live (nothing is kept), and
	// none of it may reach them.
	got := collect(t, p.StreamFrames(context.Background(), FrameSliceSource(frames...), busy), len(frames))
	check("slice source", got, false, true)
	// A source of its own that mixes the caller's frames with frames
	// read into lent ensembles: taking back one it did not lend would
	// put a caller's frame under the next file read.
	mixed := func(ctx context.Context, emit func(beam.Frame) bool) error {
		for i, f := range frames {
			if i%2 == 0 {
				if !emit(f) {
					return nil
				}
			} else if err := FrameFileSource(paths[i])(ctx, emit); err != nil {
				return err
			}
		}
		return nil
	}
	check("mixed source", collect(t, p.StreamFrames(context.Background(), mixed, busy), len(frames)), false, true)
	if !reflect.DeepEqual(frames, pristine) {
		t.Fatal("a stream changed frames its caller owns")
	}

	// File and simulation sources fill lent ensembles; SkipExtract takes
	// the trees out of circulation.
	for _, c := range []struct {
		name      string
		opts      StreamOptions
		tree, rep bool
	}{
		{"files, nothing kept", busy, false, true},
		{"files, SkipExtract", StreamOptions{SkipExtract: true, PartitionWorkers: 3, Buffer: 2}, true, false},
	} {
		got := collect(t, p.StreamFrames(context.Background(), FrameFileSource(paths...), c.opts), len(frames))
		check(c.name, got, c.tree, c.rep)
	}

	// A live source: snapshots into lent ensembles equal Snapshot(),
	// checked in a wrapping source before emit, since the stream takes
	// each ensemble back once the frame is partitioned.
	newSim := func() *beam.Sim {
		sim, err := p.NewSim()
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	ref, live := newSim(), newSim()
	snaps := make([]beam.Frame, 5)
	for i := range snaps {
		ref.RunPeriods(1)
		snaps[i] = ref.Snapshot()
	}
	filled := SimSource(live, len(snaps), 1)
	checked := func(ctx context.Context, emit func(beam.Frame) bool) error {
		i := 0
		return filled(ctx, func(f beam.Frame) bool {
			if !reflect.DeepEqual(f, snaps[i]) {
				t.Errorf("live source: frame %d's lent ensemble differs from Snapshot()", i)
			}
			i++
			return emit(f)
		})
	}
	for i, r := range collect(t, p.StreamFrames(context.Background(), checked, busy), len(snaps)) {
		_, want := serialFrame(t, p, snaps[i])
		if !reflect.DeepEqual(r.Rep, want) || r.Frame.Step != snaps[i].Step || r.Frame.S != snaps[i].S {
			t.Errorf("live source: frame %d differs from the serial snapshot", i)
		}
	}

	// Cancelled mid-run: no goroutine stays behind, and the same
	// pipeline then streams the same bits.
	before := runtime.NumGoroutine()
	s := p.StreamFrames(context.Background(), FrameFileSource(append(append([]string{}, paths...), paths...)...), busy)
	for i := 0; i < 3; i++ {
		if _, ok := <-s.Out; !ok {
			t.Fatal("the stream closed before its third frame")
		}
	}
	s.Cancel()
	for range s.Out {
	}
	if err := s.Wait(); err == nil {
		t.Error("a cancelled stream reported no error")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after the cancelled stream", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
	check("after a cancelled stream", collect(t, p.StreamFrames(context.Background(), FrameFileSource(paths...), busy), len(frames)), false, true)
}
