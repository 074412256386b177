package octree

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/vec"
)

// TestBuildDeterministicAcrossWorkers pins the partitioner's central
// concurrency contract: the parallel scans, the radix scatter, and the
// density gather change only the wall clock — Build over the same
// points yields identical trees at every worker count.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	inputs := map[string][]vec.V3{
		// Enough points that every parallel pass runs on several chunks.
		"gaussian-halo": randomPoints(60_000, 42),
		// Duplicate positions produce duplicate Morton codes, the case
		// where only a stable sort keeps the output worker-invariant.
		"duplicates": func() []vec.V3 {
			base := randomPoints(1_000, 43)
			pts := make([]vec.V3, 0, 30_000)
			for i := 0; i < 30_000; i++ {
				pts = append(pts, base[i%len(base)])
			}
			return pts
		}(),
	}
	for name, pts := range inputs {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Workers = 1
			ref, err := Build(pts, cfg)
			if err != nil {
				t.Fatalf("Build(workers=1): %v", err)
			}
			if err := ref.Validate(); err != nil {
				t.Fatalf("reference tree invalid: %v", err)
			}
			for _, w := range []int{2, runtime.NumCPU()} {
				cfg.Workers = w
				got, err := Build(pts, cfg)
				if err != nil {
					t.Fatalf("Build(workers=%d): %v", w, err)
				}
				if !reflect.DeepEqual(got.Nodes, ref.Nodes) {
					t.Errorf("workers=%d: Nodes differ from serial build", w)
				}
				if !reflect.DeepEqual(got.LeafOffsets, ref.LeafOffsets) {
					t.Errorf("workers=%d: LeafOffsets differ from serial build", w)
				}
				if !reflect.DeepEqual(got.LeavesByDensity, ref.LeavesByDensity) {
					t.Errorf("workers=%d: LeavesByDensity differ from serial build", w)
				}
				if !reflect.DeepEqual(got.OrigIndex, ref.OrigIndex) {
					t.Errorf("workers=%d: OrigIndex differs from serial build", w)
				}
				if !reflect.DeepEqual(got.Points, ref.Points) {
					t.Errorf("workers=%d: Points differ from serial build", w)
				}
			}
		})
	}
}
