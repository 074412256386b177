package repro

import (
	"path/filepath"
	"testing"

	"repro/internal/beam"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/lineio"
	"repro/internal/pario"
	"repro/internal/remote"
	"repro/internal/sos"
	"repro/internal/vec"
)

// TestFullParticlePipelineOnDisk exercises the exact chain the CLI
// tools implement: simulate -> frame file -> partition -> two-part
// tree files -> extract -> hybrid file -> render PNG, with every
// intermediate going through disk.
func TestFullParticlePipelineOnDisk(t *testing.T) {
	dir := t.TempDir()

	// beamsim
	cfg := beam.DefaultConfig(8000)
	sim, err := beam.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunPeriods(5)
	framePath := filepath.Join(dir, "beam_0000.acpf")
	if err := pario.WriteFrameFile(framePath, sim.Snapshot()); err != nil {
		t.Fatal(err)
	}

	// partition
	frame, err := pario.ReadFrameFile(framePath)
	if err != nil {
		t.Fatal(err)
	}
	pp := core.NewParticlePipeline(8000)
	tree, err := pp.Partition(frame)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "frame0_xyz")
	if err := pario.WriteTreeFiles(base, tree); err != nil {
		t.Fatal(err)
	}

	// extract
	tree2, err := pario.ReadTreeFiles(base)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := hybrid.Extract(tree2, hybrid.ExtractConfig{VolumeRes: 16, Budget: 1500})
	if err != nil {
		t.Fatal(err)
	}
	hybridPath := filepath.Join(dir, "frame0.achy")
	if err := rep.WriteFile(hybridPath); err != nil {
		t.Fatal(err)
	}

	// hybridview
	rep2, err := hybrid.ReadFile(hybridPath)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := core.DefaultTF(rep2)
	if err != nil {
		t.Fatal(err)
	}
	fb, rast, vr, err := core.RenderFrame(rep2, tf, 96, 96, vec.New(0.4, 0.3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if rast.PointCount == 0 || vr.SampleCount == 0 || fb.CoveredPixels(0.005) == 0 {
		t.Fatalf("render degenerate: points %d, samples %d, coverage %d",
			rast.PointCount, vr.SampleCount, fb.CoveredPixels(0.005))
	}
	if err := fb.WritePNG(filepath.Join(dir, "frame0.png")); err != nil {
		t.Fatal(err)
	}
}

// TestFullFieldPipelineOnDisk: solve -> trace -> line file -> reload ->
// render with all techniques.
func TestFullFieldPipelineOnDisk(t *testing.T) {
	dir := t.TempDir()
	fp := core.NewFieldPipeline(6, 30)
	frame, err := fp.Solve(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fp.TraceE(frame)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "lines.acfl")
	if err := lineio.WriteFile(path, res.Lines); err != nil {
		t.Fatal(err)
	}
	lines, err := lineio.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(res.Lines) {
		t.Fatalf("reloaded %d lines, wrote %d", len(lines), len(res.Lines))
	}
	for _, tech := range append(sos.Techniques(), sos.TechTransparentOIT) {
		fb, st, err := fp.RenderLines(lines, tech, 64, 64, vec.New(0.8, 0.45, 0.9))
		if err != nil {
			t.Fatalf("%v: %v", tech, err)
		}
		if fb.CoveredPixels(0.005) == 0 {
			t.Errorf("%v: black frame from reloaded lines", tech)
		}
		_ = st
	}
}

// TestRemoteViewerIntegration: hybrid frames served over TCP and
// fetched by a viewer, forward and back, arrive as the frames the
// pipeline produced.
func TestRemoteViewerIntegration(t *testing.T) {
	pp := core.NewParticlePipeline(6000)
	pp.Extract.VolumeRes = 12
	sim, err := pp.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	var frames []*hybrid.Representation
	for f := 0; f < 4; f++ {
		sim.RunPeriods(2)
		rep, err := pp.ProcessFrame(sim.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, rep)
	}
	store, err := remote.NewMemStore(frames)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := remote.NewService("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := remote.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	for _, i := range []int{0, 1, 2, 3, 2, 1, 0} {
		rep, wireBytes, _, err := cli.FetchFrame(i)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if rep.NumPoints() != frames[i].NumPoints() {
			t.Errorf("frame %d: %d points, want %d", i, rep.NumPoints(), frames[i].NumPoints())
		}
		if want := int64(len(frames[i].AppendBinary(nil))); wireBytes != want {
			t.Errorf("frame %d: %d bytes on the wire, want %d", i, wireBytes, want)
		}
	}
	if _, _, _, err := cli.FetchFrame(len(frames)); err == nil {
		t.Error("fetching past the last frame succeeded")
	}
}

// TestPlotTypeConversionMatchesDirectPartition: converting a
// partitioned tree to a new plot type yields the same leaf structure
// as partitioning the original data directly under that plot type.
func TestPlotTypeConversionMatchesDirectPartition(t *testing.T) {
	pp := core.NewParticlePipeline(5000)
	sim, err := pp.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	sim.RunPeriods(3)
	frame := sim.Snapshot()

	spatial, err := pp.Partition(frame)
	if err != nil {
		t.Fatal(err)
	}
	momAxes := [3]beam.Axis{beam.AxisPX, beam.AxisPY, beam.AxisPZ}
	converted, err := core.ConvertPlotType(spatial, frame.E, momAxes, pp.Tree)
	if err != nil {
		t.Fatal(err)
	}
	ppMom := core.NewParticlePipeline(5000)
	ppMom.Axes = momAxes
	direct, err := ppMom.Partition(frame)
	if err != nil {
		t.Fatal(err)
	}
	// Same number of leaves, same halo counts at matched thresholds.
	if converted.NumLeaves() != direct.NumLeaves() {
		t.Errorf("leaf counts differ: converted %d, direct %d", converted.NumLeaves(), direct.NumLeaves())
	}
	for _, budget := range []int64{100, 1000, 4000} {
		th := direct.ThresholdForBudget(budget)
		if got, want := converted.LeafOffsets[converted.CutLeaf(th)], direct.LeafOffsets[direct.CutLeaf(th)]; got != want {
			t.Errorf("budget %d: converted halo %d, direct %d", budget, got, want)
		}
	}
}

// TestManyFramesFitInMemory verifies the §2.5 economics at test scale:
// the hybrid frames are small enough that the cache holds many, while
// the same budget would hold only ~2 raw frames.
func TestManyFramesFitInMemory(t *testing.T) {
	pp := core.NewParticlePipeline(10000)
	pp.Extract.VolumeRes = 16
	sim, err := pp.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	sim.RunPeriods(3)
	rep, err := pp.ProcessFrame(sim.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	raw := pario.FrameBytes(10000)
	budget := 2 * raw // a memory that fits exactly 2 raw frames
	perHybrid := rep.SizeBytes()
	fit := budget / perHybrid
	if fit < 5 {
		t.Errorf("only %d hybrid frames fit in a 2-raw-frame budget; want >= 5 (paper: ~10 vs 2)", fit)
	}
}
