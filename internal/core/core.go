// Package core is the public façade of the library: two high-level
// pipelines covering the paper's two contributions, each available
// both as one-shot calls and as a concurrent, frame-overlapped stream.
//
// ParticlePipeline (§2) — beam-dynamics particle data:
//
//	sim → snapshot frames → octree partition → hybrid extraction →
//	hybrid rendering (low-res volume + full-res halo points under
//	inverse-linked transfer functions)
//
// FieldPipeline (§3) — time-domain electromagnetic field data:
//
//	cavity mesh → FDTD solve → density-proportional field-line
//	seeding → self-orienting-surface rendering with perceptual cues
//
// # Streaming execution
//
// The paper's terascale workflow is a chain of separate programs run
// over hundreds of time-step frames. StreamFrames and StreamSolve
// express those chains on the internal/pipeline stage engine: each
// stage runs on its own goroutines connected by bounded channels, so
// frame N+1 partitions while frame N extracts and frame N-1 renders,
// and per-stage worker counts add frame-level parallelism within a
// stage. Output arrives in frame order and — for equal per-stage
// configurations — is bit-identical to the serial path, at every worker
// count and on every core count. The one-shot
// methods (ProcessFrame) are thin wrappers over a one-frame stream.
//
// Frames enter a stream through a FrameSource: live simulation
// snapshots (SimSource), in-memory frames (FrameSliceSource), or
// pario frame files (FrameFileSource); the partition/extract/render
// commands and the time-series benchmarks all drive this same entry
// point.
//
// Every stage is also available directly from its own package for
// callers that need finer control; the pipelines wire the defaults the
// experiments use.
package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/beam"
	"repro/internal/emsim"
	"repro/internal/fieldline"
	"repro/internal/hexmesh"
	"repro/internal/hybrid"
	"repro/internal/octree"
	"repro/internal/render"
	"repro/internal/seeding"
	"repro/internal/sos"
	"repro/internal/vec"
	"repro/internal/volren"
)

// ParticlePipeline runs the §2 hybrid-visualization pipeline.
type ParticlePipeline struct {
	Sim     beam.Config
	Tree    octree.Config
	Extract hybrid.ExtractConfig
	// Axes selects the 3-D plot type, e.g. {AxisX, AxisY, AxisZ} or the
	// phase plot {AxisX, AxisPX, AxisY} of Fig 1.
	Axes [3]beam.Axis
}

// NewParticlePipeline returns a pipeline with the defaults used by the
// experiments: n particles, level-8 octree, 64^3 hybrid volume, a
// point budget of n/10, and the spatial (x, y, z) plot.
func NewParticlePipeline(n int) *ParticlePipeline {
	return &ParticlePipeline{
		Sim:     beam.DefaultConfig(n),
		Tree:    octree.DefaultConfig(),
		Extract: hybrid.ExtractConfig{VolumeRes: 64, Budget: int64(n / 10)},
		Axes:    [3]beam.Axis{beam.AxisX, beam.AxisY, beam.AxisZ},
	}
}

// NewSim constructs the underlying beam simulation.
func (p *ParticlePipeline) NewSim() (*beam.Sim, error) { return beam.NewSim(p.Sim) }

// Partition projects a frame onto the pipeline's axes and builds the
// octree — the paper's partitioning program.
func (p *ParticlePipeline) Partition(f beam.Frame) (*octree.Tree, error) {
	e := f.E
	return new(octree.Builder).BuildColumns(e.Coord(p.Axes[0]), e.Coord(p.Axes[1]), e.Coord(p.Axes[2]), p.Tree, nil)
}

// Hybrid extracts the hybrid representation from a partitioned tree —
// the paper's extraction program.
func (p *ParticlePipeline) Hybrid(t *octree.Tree) (*hybrid.Representation, error) {
	return hybrid.Extract(t, p.Extract)
}

// ProcessFrame runs partition + extraction on one frame. It is a thin
// wrapper over the streaming path: a one-frame stream through the same
// stage chain StreamFrames runs, so the two cannot drift apart.
func (p *ParticlePipeline) ProcessFrame(f beam.Frame) (*hybrid.Representation, error) {
	s := p.StreamFrames(context.Background(), FrameSliceSource(f), StreamOptions{})
	var rep *hybrid.Representation
	for r := range s.Out {
		rep = r.Rep
	}
	if err := s.Wait(); err != nil {
		return nil, err
	}
	if rep == nil {
		return nil, fmt.Errorf("core: stream produced no frame")
	}
	return rep, nil
}

// ConvertPlotType re-partitions already-partitioned data under a new
// plot type — the feature §2.3 describes as "possible (although not
// yet implemented)": because the partitioned representation holds all
// the particle data (the tree's OrigIndex recovers each particle's
// full six coordinates), the original unordered file can be discarded
// and any other 3-D plot re-keyed from the partitioned data alone.
func ConvertPlotType(t *octree.Tree, e *beam.Ensemble, newAxes [3]beam.Axis, cfg octree.Config) (*octree.Tree, error) {
	if len(t.OrigIndex) != e.Len() {
		return nil, fmt.Errorf("core: tree holds %d particles, ensemble %d", len(t.OrigIndex), e.Len())
	}
	// Reconstruct the full 6-D particle set in partitioned order — the
	// layout the paper's two-part file stores — then project onto the
	// new axes. Walking t.OrigIndex is the in-memory equivalent of
	// reading the partitioned particle file sequentially.
	pts := make([]vec.V3, len(t.OrigIndex))
	for i, oi := range t.OrigIndex {
		pts[i] = e.Point3(int(oi), newAxes)
	}
	nt, err := octree.Build(pts, cfg)
	if err != nil {
		return nil, err
	}
	// Build's OrigIndex refers to the partitioned-order input slice;
	// compose with the source tree's mapping so the converted tree's
	// indices keep referring to the original frame.
	for i, pi := range nt.OrigIndex {
		nt.OrigIndex[i] = t.OrigIndex[pi]
	}
	return nt, nil
}

// DefaultTF builds the viewer's default transfer-function pair for a
// representation. It is hybrid.DefaultTF, re-exported so façade
// callers keep a one-stop API.
func DefaultTF(rep *hybrid.Representation) (*hybrid.LinkedTF, error) {
	return hybrid.DefaultTF(rep)
}

// RenderFrame renders a hybrid representation from the given view
// direction into a fresh w x h framebuffer, returning the frame and
// the renderer stats. The point pass splats serially
// (render.Rasterizer.DrawPoint) and the volume pass runs on the
// parallel ray caster, which is deterministic at any worker count.
func RenderFrame(rep *hybrid.Representation, tf *hybrid.LinkedTF, w, h int, viewDir vec.V3) (*render.Framebuffer, *render.Rasterizer, *volren.Renderer, error) {
	return volren.RenderStill(rep, tf, w, h, viewDir)
}

// FieldPipeline runs the §3 field-line visualization pipeline.
type FieldPipeline struct {
	Cavity  hexmesh.CavityConfig
	Solver  func(m *hexmesh.Mesh, cav hexmesh.CavityConfig) emsim.Config
	Seeding seeding.Config

	mesh *hexmesh.Mesh
	sim  *emsim.Sim
}

// NewFieldPipeline returns a pipeline over the 3-cell structure of
// Figs 6-8 at the given lattice resolution with a budget of lines.
func NewFieldPipeline(cellsPerRadius, lines int) *FieldPipeline {
	return &FieldPipeline{
		Cavity: hexmesh.DefaultCavity(cellsPerRadius),
		Solver: emsim.DefaultConfig,
		Seeding: seeding.Config{
			TotalLines: lines,
			Trace:      fieldline.Config{Step: 0, MaxSteps: 600, MinMag: 0},
			Seed:       2002,
		},
	}
}

// Mesh builds (and caches) the cavity mesh.
func (p *FieldPipeline) Mesh() (*hexmesh.Mesh, error) {
	if p.mesh == nil {
		m, err := hexmesh.BuildCavity(p.Cavity)
		if err != nil {
			return nil, err
		}
		p.mesh = m
	}
	return p.mesh, nil
}

// ensureSim builds (and caches) the mesh and solver.
func (p *FieldPipeline) ensureSim() (*emsim.Sim, error) {
	m, err := p.Mesh()
	if err != nil {
		return nil, err
	}
	if p.sim == nil {
		sim, err := emsim.New(p.Solver(m, p.Cavity))
		if err != nil {
			return nil, err
		}
		p.sim = sim
	}
	return p.sim, nil
}

// Solve builds the solver (cached) and advances it the given number of
// drive periods, returning a field snapshot.
func (p *FieldPipeline) Solve(periods float64) (*emsim.FieldFrame, error) {
	sim, err := p.ensureSim()
	if err != nil {
		return nil, err
	}
	sim.AdvancePeriods(periods)
	return sim.Snapshot(), nil
}

// Sim exposes the cached solver (nil before the first Solve).
func (p *FieldPipeline) Sim() *emsim.Sim { return p.sim }

// TraceE seeds and integrates electric field lines over a snapshot
// using the paper's density-proportional strategy.
func (p *FieldPipeline) TraceE(frame *emsim.FieldFrame) (*seeding.Result, error) {
	m, err := p.Mesh()
	if err != nil {
		return nil, err
	}
	cfg := p.Seeding
	if cfg.Trace.Step == 0 {
		cfg.Trace.Step = m.MinSpacing() / 2
	}
	if cfg.Trace.MinMag == 0 {
		cfg.Trace.MinMag = frame.MaxE() * 1e-4
	}
	cfg.Bidirectional = true // electric lines run surface to surface
	field := fieldline.FieldFunc(frame.SampleE)
	intensity := func(e int) float64 { return frame.ElementEMagnitude(e) }
	return seeding.SeedLines(m, field, intensity, cfg)
}

// TraceB seeds and integrates magnetic field lines over a snapshot.
// Magnetic lines have no endpoints — they close on themselves — so
// integration runs one-directionally with loop-closure detection.
func (p *FieldPipeline) TraceB(frame *emsim.FieldFrame) (*seeding.Result, error) {
	m, err := p.Mesh()
	if err != nil {
		return nil, err
	}
	cfg := p.Seeding
	if cfg.Trace.Step == 0 {
		cfg.Trace.Step = m.MinSpacing() / 2
	}
	maxB := 0.0
	for _, b := range frame.B {
		if l := b.Len(); l > maxB {
			maxB = l
		}
	}
	if cfg.Trace.MinMag == 0 {
		cfg.Trace.MinMag = maxB * 1e-4
	}
	cfg.Trace.CloseLoop = true
	cfg.Bidirectional = false
	field := fieldline.FieldFunc(frame.SampleB)
	intensity := func(e int) float64 { return frame.B[e].Len() }
	return seeding.SeedLines(m, field, intensity, cfg)
}

// RenderLines draws a set of field lines with the given technique from
// the given view direction.
func (p *FieldPipeline) RenderLines(lines []*fieldline.Line, tech sos.Technique,
	w, h int, viewDir vec.V3) (*render.Framebuffer, sos.Stats, error) {

	m, err := p.Mesh()
	if err != nil {
		return nil, sos.Stats{}, err
	}
	fb, err := render.NewFramebuffer(w, h)
	if err != nil {
		return nil, sos.Stats{}, err
	}
	cam, err := render.LookAtBounds(m.Bounds, viewDir, math.Pi/3, float64(w)/float64(h))
	if err != nil {
		return nil, sos.Stats{}, err
	}
	opts := sos.DefaultOptions(m.Bounds.Diagonal())
	opts.CutNormal = vec.New(0, 0, 1)
	opts.CutOffset = m.Bounds.Center().Z
	opts.FocusCenter = m.Bounds.Center()
	opts.FocusRadius = m.Bounds.Diagonal() / 6
	st := sos.RenderLines(fb, cam, lines, tech, opts)
	return fb, st, nil
}

// Verify is a quick integrity check across both pipelines, used by
// examples to fail fast on configuration errors.
func Verify() error {
	if _, err := beam.NewSim(beam.DefaultConfig(16)); err != nil {
		return fmt.Errorf("core: beam pipeline broken: %w", err)
	}
	if _, err := hexmesh.BuildCavity(hexmesh.DefaultCavity(6)); err != nil {
		return fmt.Errorf("core: field pipeline broken: %w", err)
	}
	return nil
}
