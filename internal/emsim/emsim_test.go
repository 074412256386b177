package emsim

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/hexmesh"
	"repro/internal/par"
	"repro/internal/vec"
)

func smallSim(t *testing.T, res int) *Sim {
	t.Helper()
	cav := hexmesh.DefaultCavity(res)
	m, err := hexmesh.BuildCavity(cav)
	if err != nil {
		t.Fatalf("BuildCavity: %v", err)
	}
	s, err := New(DefaultConfig(m, cav))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("accepted nil mesh")
	}
	cav := hexmesh.DefaultCavity(6)
	m, err := hexmesh.BuildCavity(cav)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(m, cav)
	cfg.Courant = 1.5
	if _, err := New(cfg); err == nil {
		t.Error("accepted Courant factor > 1")
	}
}

func TestCourantBound(t *testing.T) {
	s := smallSim(t, 6)
	// dt must be below the stability limit and positive.
	if s.DT() <= 0 || s.DT() >= s.CourantDT() {
		t.Errorf("dt %g outside (0, courant limit %g)", s.DT(), s.CourantDT())
	}
	// For a uniform cubic lattice the limit is d/sqrt(3).
	want := s.Mesh.Dx / math.Sqrt(3)
	if math.Abs(s.CourantDT()-want) > 1e-12 {
		t.Errorf("CourantDT = %g, want %g", s.CourantDT(), want)
	}
}

func TestEnergyInjectionAndStability(t *testing.T) {
	s := smallSim(t, 6)
	if s.Energy() != 0 {
		t.Fatalf("initial energy %g, want 0", s.Energy())
	}
	s.AdvancePeriods(3)
	e1 := s.Energy()
	if e1 <= 0 {
		t.Fatal("drive injected no energy")
	}
	if math.IsNaN(e1) || math.IsInf(e1, 0) {
		t.Fatalf("energy diverged: %g", e1)
	}
	// Run several more periods: energy must stay finite (stable scheme).
	s.AdvancePeriods(5)
	e2 := s.Energy()
	if math.IsNaN(e2) || math.IsInf(e2, 0) {
		t.Fatalf("energy diverged after more periods: %g", e2)
	}
	// With Mur-terminated ports the energy must not grow unboundedly:
	// allow growth while filling, but bounded by a generous factor.
	if e2 > e1*1e3 {
		t.Errorf("energy grew from %g to %g; absorbing boundary suspect", e1, e2)
	}
}

func TestFieldsStayZeroInConductor(t *testing.T) {
	s := smallSim(t, 6)
	s.AdvancePeriods(2)
	f := s.Snapshot()
	// Sample deep inside the conductor (corner of the domain, far from
	// ports and cavity).
	p := vec.New(s.Mesh.Bounds.Min.X+s.Mesh.Dx, s.Mesh.Bounds.Min.Y+s.Mesh.Dy, s.Mesh.Bounds.Min.Z+s.Mesh.Dz)
	if s.Mesh.Inside(p) {
		t.Skip("test point unexpectedly in vacuum")
	}
	if e := f.SampleE(p); e.Len() != 0 {
		t.Errorf("E in conductor = %v", e)
	}
}

func TestWavePropagatesIntoCavity(t *testing.T) {
	s := smallSim(t, 8)
	cav := s.Cfg.Cavity
	// Before driving, the field at the first cell center is zero.
	probe := vec.New(0, 0, cav.PipeLength+cav.CellLength/2)
	f0 := s.Snapshot()
	if f0.SampleE(probe).Len() != 0 {
		t.Fatal("field nonzero before any steps")
	}
	s.AdvancePeriods(4)
	f1 := s.Snapshot()
	if f1.SampleE(probe).Len() == 0 {
		t.Error("no field reached the first cell after 4 periods")
	}
}

func TestWaveReachesOutputEnd(t *testing.T) {
	s := smallSim(t, 8)
	cav := s.Cfg.Cavity
	lastCell := vec.New(0, 0, cav.PipeLength+2*(cav.CellLength+cav.IrisThickness)+cav.CellLength/2)
	s.AdvancePeriods(8)
	f := s.Snapshot()
	if f.SampleE(lastCell).Len() == 0 {
		t.Error("no field reached the last cell; RF transmission broken")
	}
}

func TestSnapshotIndependentOfSim(t *testing.T) {
	s := smallSim(t, 6)
	s.AdvancePeriods(2)
	f := s.Snapshot()
	e0 := f.SampleE(vec.New(0, 0, s.Cfg.Cavity.TotalLength()/2))
	s.AdvancePeriods(1)
	e1 := f.SampleE(vec.New(0, 0, s.Cfg.Cavity.TotalLength()/2))
	if e0 != e1 {
		t.Error("snapshot changed after further stepping")
	}
}

func TestRawBytesMatchesPaperArithmetic(t *testing.T) {
	s := smallSim(t, 6)
	f := s.Snapshot()
	want := int64(s.Mesh.NumElements()) * 48
	if f.RawBytes() != want {
		t.Errorf("RawBytes = %d, want %d", f.RawBytes(), want)
	}
	// The paper's 12-cell figure: 1.6M elements -> ~80MB/step.
	mb := 1_600_000 * 48.0 / 1e6
	if mb < 70 || mb > 85 {
		t.Errorf("1.6M elements = %.1f MB/step, paper says ~80", mb)
	}
}

func TestTransverseAsymmetryDetectsPortAsymmetry(t *testing.T) {
	run := func(asym float64) float64 {
		cav := hexmesh.TwelveCellCavity(6, asym)
		cav.Cells = 4 // shrink for test speed; ports stay on first/last cells
		cav.InputPort.Cell = 0
		cav.OutputPort.Cell = 3
		m, err := hexmesh.BuildCavity(cav)
		if err != nil {
			t.Fatalf("BuildCavity: %v", err)
		}
		s, err := New(DefaultConfig(m, cav))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		s.AdvancePeriods(6)
		return s.Snapshot().TransverseAsymmetry()
	}
	sym := run(0)
	asym := run(0.5)
	if asym <= sym {
		t.Errorf("asymmetric ports gave asymmetry %.4f <= symmetric %.4f", asym, sym)
	}
	// With symmetric ports, both mouths drive identically, so the field
	// must be nearly up/down symmetric in absolute terms.
	if sym > 0.05 {
		t.Errorf("symmetric ports gave asymmetry %.4f, want < 0.05 (port drive unbalanced)", sym)
	}
}

func TestSampleEOutsideDomain(t *testing.T) {
	s := smallSim(t, 6)
	f := s.Snapshot()
	if e := f.SampleE(vec.New(1e6, 0, 0)); e.Len() != 0 {
		t.Error("nonzero field outside domain")
	}
}

// The FDTD substrate must ring near the physical eigenfrequency of the
// cavity: the pillbox TM010 estimate omega = 2.405 c / R (with the
// iris-loaded geometry shifting it somewhat). This validates that the
// solver produces physically meaningful fields, not just bounded ones.
func TestCavityResonanceNearTM010(t *testing.T) {
	cav := hexmesh.DefaultCavity(10)
	m, err := hexmesh.BuildCavity(cav)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(m, cav)
	// Drive slightly off the TM010 estimate so the measured ring
	// frequency is the cavity's own response, then let it ring.
	cfg.Freq = 2.0 / cav.CellRadius
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the cavity, then record a probe at the center of cell 1.
	s.AdvancePeriods(6)
	probe := vec.New(0, 0, cav.PipeLength+1.5*cav.CellLength+cav.IrisThickness)
	series := s.RunProbe(probe, 4096)
	omega, err := PeakFrequency(series.Values, series.DT)
	if err != nil {
		t.Fatalf("PeakFrequency: %v", err)
	}
	tm010 := 2.405 / cav.CellRadius
	// The solver measures 1.037x the pillbox estimate. The band allows
	// for what is known to move it: the spectrum's bin width (4096
	// samples: ±2.2 %), the staircase wall, which at 10 cells per radius
	// can shrink the effective radius by up to half a cell (+5 %), and
	// the iris loading, which couples the cells and pulls the mode down
	// by a few percent.
	if omega < 0.98*tm010 || omega > 1.10*tm010 {
		t.Errorf("cavity rings at omega=%.3f; TM010 estimate %.3f (accept 0.98x-1.10x)", omega, tm010)
	}
	t.Logf("measured ring frequency %.3f vs TM010 estimate %.3f (ratio %.2f)", omega, tm010, omega/tm010)
}

// ProbeSeries records a field component at a fixed point over many
// steps — the diagnostic used to measure what frequency the cavity
// actually rings at (finding eigenmodes is what the paper's
// electromagnetic simulations are for).
type ProbeSeries struct {
	Values []float64
	DT     float64
}

// RunProbe advances the simulation n steps, sampling Ez at world point
// p after every step.
func (s *Sim) RunProbe(p vec.V3, n int) *ProbeSeries {
	series := &ProbeSeries{DT: s.dt, Values: make([]float64, 0, n)}
	for i := 0; i < n; i++ {
		s.advanceOnce()
		f := s.probeEz(p)
		series.Values = append(series.Values, f)
	}
	return series
}

// probeEz samples the Ez Yee component nearest to p (cheap single-point
// probe; Snapshot interpolation is unnecessary for spectral use).
func (s *Sim) probeEz(p vec.V3) float64 {
	m := s.Mesh
	i := int((p.X - m.Bounds.Min.X) / m.Dx)
	j := int((p.Y - m.Bounds.Min.Y) / m.Dy)
	k := int((p.Z - m.Bounds.Min.Z) / m.Dz)
	if i < 0 || i >= s.nx || j < 0 || j >= s.ny || k < 0 || k >= s.nz {
		return 0
	}
	return s.ez[s.iEz(i, j, k)]
}

// ---- the reference stepper -------------------------------------------
//
// refUpdateH and refUpdateE are the sweeps this package shipped before
// the row/span sweeps, verbatim: six full-lattice passes with an index
// call per access. They are the oracle the product stepper is held to.

// refUpdateH applies the curl-E update to all magnetic components.
func refUpdateH(s *Sim) {
	nx, ny, nz := s.nx, s.ny, s.nz
	dx, dy, dz := s.Mesh.Dx, s.Mesh.Dy, s.Mesh.Dz
	dt := s.dt
	w := par.Workers()
	// Hx(i, j+1/2, k+1/2) -= dt * (dEz/dy - dEy/dz)
	par.ForChunks(nz, w, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i <= nx; i++ {
					curl := (s.ez[s.iEz(i, j+1, k)]-s.ez[s.iEz(i, j, k)])/dy -
						(s.ey[s.iEy(i, j, k+1)]-s.ey[s.iEy(i, j, k)])/dz
					s.hx[s.iHx(i, j, k)] -= dt * curl
				}
			}
		}
	})
	// Hy(i+1/2, j, k+1/2) -= dt * (dEx/dz - dEz/dx)
	par.ForChunks(nz, w, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			for j := 0; j <= ny; j++ {
				for i := 0; i < nx; i++ {
					curl := (s.ex[s.iEx(i, j, k+1)]-s.ex[s.iEx(i, j, k)])/dz -
						(s.ez[s.iEz(i+1, j, k)]-s.ez[s.iEz(i, j, k)])/dx
					s.hy[s.iHy(i, j, k)] -= dt * curl
				}
			}
		}
	})
	// Hz(i+1/2, j+1/2, k) -= dt * (dEy/dx - dEx/dy)
	par.ForChunks(nz+1, w, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					curl := (s.ey[s.iEy(i+1, j, k)]-s.ey[s.iEy(i, j, k)])/dx -
						(s.ex[s.iEx(i, j+1, k)]-s.ex[s.iEx(i, j, k)])/dy
					s.hz[s.iHz(i, j, k)] -= dt * curl
				}
			}
		}
	})
}

// refUpdateE applies the curl-H update to all active electric edges.
func refUpdateE(s *Sim) {
	nx, ny, nz := s.nx, s.ny, s.nz
	dx, dy, dz := s.Mesh.Dx, s.Mesh.Dy, s.Mesh.Dz
	dt := s.dt
	w := par.Workers()
	// Ex(i+1/2, j, k) += dt * (dHz/dy - dHy/dz), interior edges only.
	par.ForChunks(nz-1, w, func(lo, hi int) {
		for k := lo + 1; k < hi+1; k++ {
			for j := 1; j < ny; j++ {
				for i := 0; i < nx; i++ {
					idx := s.iEx(i, j, k)
					if !s.mx[idx] {
						continue
					}
					curl := (s.hz[s.iHz(i, j, k)]-s.hz[s.iHz(i, j-1, k)])/dy -
						(s.hy[s.iHy(i, j, k)]-s.hy[s.iHy(i, j, k-1)])/dz
					s.ex[idx] += dt * curl
				}
			}
		}
	})
	// Ey(i, j+1/2, k) += dt * (dHx/dz - dHz/dx)
	par.ForChunks(nz-1, w, func(lo, hi int) {
		for k := lo + 1; k < hi+1; k++ {
			for j := 0; j < ny; j++ {
				for i := 1; i < nx; i++ {
					idx := s.iEy(i, j, k)
					if !s.my[idx] {
						continue
					}
					curl := (s.hx[s.iHx(i, j, k)]-s.hx[s.iHx(i, j, k-1)])/dz -
						(s.hz[s.iHz(i, j, k)]-s.hz[s.iHz(i-1, j, k)])/dx
					s.ey[idx] += dt * curl
				}
			}
		}
	})
	// Ez(i, j, k+1/2) += dt * (dHy/dx - dHx/dy)
	par.ForChunks(nz, w, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			for j := 1; j < ny; j++ {
				for i := 1; i < nx; i++ {
					idx := s.iEz(i, j, k)
					if !s.mz[idx] {
						continue
					}
					curl := (s.hy[s.iHy(i, j, k)]-s.hy[s.iHy(i-1, j, k)])/dx -
						(s.hx[s.iHx(i, j, k)]-s.hx[s.iHx(i, j-1, k)])/dy
					s.ez[idx] += dt * curl
				}
			}
		}
	})
}

// refAdvanceOnce is one leapfrog step of the reference stepper.
func refAdvanceOnce(s *Sim) {
	refUpdateH(s)
	refUpdateE(s)
	s.applyPorts()
	s.time += s.dt
	s.step++
}

// namedArray is one of a solver's six Yee arrays.
type namedArray struct {
	name string
	v    []float64
}

func fieldArrays(s *Sim) [6]namedArray {
	return [6]namedArray{{"ex", s.ex}, {"ey", s.ey}, {"ez", s.ez}, {"hx", s.hx}, {"hy", s.hy}, {"hz", s.hz}}
}

// diffFields returns the first bit difference between two solvers'
// fields, or "".
func diffFields(got, want *Sim) string {
	g, w := fieldArrays(got), fieldArrays(want)
	for a := range g {
		for i := range g[a].v {
			if math.Float64bits(g[a].v[i]) != math.Float64bits(w[a].v[i]) {
				return fmt.Sprintf("%s[%d] = %x (%g), reference %x (%g)", g[a].name, i,
					math.Float64bits(g[a].v[i]), g[a].v[i], math.Float64bits(w[a].v[i]), w[a].v[i])
			}
		}
	}
	if got.step != want.step || math.Float64bits(got.time) != math.Float64bits(want.time) {
		return fmt.Sprintf("step/time %d/%g, reference %d/%g", got.step, got.time, want.step, want.time)
	}
	return ""
}

// stepperCase is one configuration of the differential matrix.
type stepperCase struct {
	name    string
	cells   int
	asym    float64
	res     int
	courant float64
	procs   int // GOMAXPROCS for the run
}

func (c stepperCase) config(t testing.TB) Config {
	t.Helper()
	cav := hexmesh.TwelveCellCavity(c.res, c.asym)
	cav.Cells = c.cells
	cav.OutputPort.Cell = c.cells - 1
	m, err := hexmesh.BuildCavity(cav)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(m, cav)
	cfg.Courant = c.courant
	return cfg
}

// stepperMatrix covers both structures, symmetric and asymmetric ports,
// resolutions 4/6/9, Courant factors 0.3/0.5/0.9 and core counts
// 1/2/7 (7 does not divide any plane count here).
var stepperMatrix = []stepperCase{
	{"3cell/res4/c0.5/w1", 3, 0, 4, 0.5, 1},
	{"3cell/res6/c0.3/w2", 3, 0, 6, 0.3, 2},
	{"3cell/res9/c0.9/w7", 3, 0, 9, 0.9, 7},
	{"3cell/asym/res6/c0.9/w1", 3, 0.4, 6, 0.9, 1},
	{"12cell/asym/res4/c0.5/w2", 12, 0.5, 4, 0.5, 2},
	{"12cell/asym/res6/c0.9/w7", 12, 0.3, 6, 0.9, 7},
}

// runDifferential steps a product solver (after mutate, if any, has
// edited it) and a reference solver side by side for 500 steps,
// comparing all six arrays bit for bit every 25, and returns the first
// difference.
func runDifferential(t testing.TB, cfg Config, mutate func(*Sim)) error {
	t.Helper()
	got, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(got)
	}
	for step := 25; step <= 500; step += 25 {
		got.Advance(25)
		for i := 0; i < 25; i++ {
			refAdvanceOnce(want)
		}
		if d := diffFields(got, want); d != "" {
			return fmt.Errorf("after %d steps: %s", step, d)
		}
	}
	if want.Energy() == 0 {
		t.Fatal("reference run stayed at zero field; the comparison is vacuous")
	}
	return nil
}

// TestAdvanceMatchesReference: the two-sweep span stepper produces the
// same bits as the full-lattice reference sweeps.
func TestAdvanceMatchesReference(t *testing.T) {
	for _, c := range stepperMatrix {
		c := c
		t.Run(c.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			if err := runDifferential(t, c.config(t), nil); err != nil {
				t.Error(err)
			}
		})
	}
}

// naiveMasks recomputes the three edge masks from their definition, one
// bounds-checked mesh lookup per adjacent cell.
func naiveMasks(s *Sim) (mx, my, mz []bool) {
	nx, ny, nz := s.nx, s.ny, s.nz
	vac := func(i, j, k int) bool { return s.Mesh.ElementIndexAt(i, j, k) >= 0 }
	mx, my, mz = make([]bool, len(s.ex)), make([]bool, len(s.ey)), make([]bool, len(s.ez))
	for k := 0; k <= nz; k++ {
		for j := 0; j <= ny; j++ {
			for i := 0; i < nx; i++ {
				mx[s.iEx(i, j, k)] = vac(i, j-1, k-1) && vac(i, j, k-1) && vac(i, j-1, k) && vac(i, j, k)
			}
		}
	}
	for k := 0; k <= nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i <= nx; i++ {
				my[s.iEy(i, j, k)] = vac(i-1, j, k-1) && vac(i, j, k-1) && vac(i-1, j, k) && vac(i, j, k)
			}
		}
	}
	for k := 0; k < nz; k++ {
		for j := 0; j <= ny; j++ {
			for i := 0; i <= nx; i++ {
				mz[s.iEz(i, j, k)] = vac(i-1, j-1, k) && vac(i, j-1, k) && vac(i-1, j, k) && vac(i, j, k)
			}
		}
	}
	return mx, my, mz
}

// naiveSpans recomputes the six span tables from their definition: a
// row's span runs from its first to one past its last i that can hold a
// nonzero update — for E the active edges, for H the components with at
// least one active edge among the four their curl reads. skip names one
// of those four (0-3) to leave out, -1 for none; it exists for the
// three-of-four mutant.
func naiveSpans(s *Sim, skip int) (ex, ey, ez, hx, hy, hz []span) {
	nx, ny, nz := s.nx, s.ny, s.nz
	rowSpan := func(n int, active func(i int) bool) span {
		sp := span{}
		for i := 0; i < n; i++ {
			if active(i) {
				if sp.hi == 0 {
					sp.lo = int32(i)
				}
				sp.hi = int32(i) + 1
			}
		}
		return sp
	}
	any4 := func(e [4]bool) bool {
		for n, v := range e {
			if v && n != skip {
				return true
			}
		}
		return false
	}
	ex, ey, ez = make([]span, (nz+1)*(ny+1)), make([]span, (nz+1)*ny), make([]span, nz*(ny+1))
	hx, hy, hz = make([]span, nz*ny), make([]span, nz*(ny+1)), make([]span, (nz+1)*ny)
	for k := 0; k <= nz; k++ {
		for j := 0; j <= ny; j++ {
			ex[k*(ny+1)+j] = rowSpan(nx, func(i int) bool { return s.mx[s.iEx(i, j, k)] })
			if j < ny {
				ey[k*ny+j] = rowSpan(nx+1, func(i int) bool { return s.my[s.iEy(i, j, k)] })
				hz[k*ny+j] = rowSpan(nx, func(i int) bool {
					return any4([4]bool{s.my[s.iEy(i+1, j, k)], s.my[s.iEy(i, j, k)], s.mx[s.iEx(i, j+1, k)], s.mx[s.iEx(i, j, k)]})
				})
			}
			if k < nz {
				ez[k*(ny+1)+j] = rowSpan(nx+1, func(i int) bool { return s.mz[s.iEz(i, j, k)] })
				hy[k*(ny+1)+j] = rowSpan(nx, func(i int) bool {
					return any4([4]bool{s.mx[s.iEx(i, j, k+1)], s.mx[s.iEx(i, j, k)], s.mz[s.iEz(i+1, j, k)], s.mz[s.iEz(i, j, k)]})
				})
			}
			if j < ny && k < nz {
				hx[k*ny+j] = rowSpan(nx+1, func(i int) bool {
					return any4([4]bool{s.mz[s.iEz(i, j+1, k)], s.mz[s.iEz(i, j, k)], s.my[s.iEy(i, j, k+1)], s.my[s.iEy(i, j, k)]})
				})
			}
		}
	}
	return ex, ey, ez, hx, hy, hz
}

func spansEqual(a, b []span) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSpansMatchDefinition: the masks and span tables New builds from
// the padded cell table equal their definitions, recomputed naively.
func TestSpansMatchDefinition(t *testing.T) {
	for _, c := range stepperMatrix {
		s, err := New(c.config(t))
		if err != nil {
			t.Fatal(err)
		}
		mx, my, mz := naiveMasks(s)
		for _, m := range []struct {
			name      string
			got, want []bool
		}{{"mx", s.mx, mx}, {"my", s.my, my}, {"mz", s.mz, mz}} {
			for i := range m.want {
				if m.got[i] != m.want[i] {
					t.Fatalf("%s: mask %s[%d] = %v, definition %v", c.name, m.name, i, m.got[i], m.want[i])
				}
			}
		}
		ex, ey, ez, hx, hy, hz := naiveSpans(s, -1)
		for _, sp := range []struct {
			name      string
			got, want []span
		}{{"ex", s.spEx, ex}, {"ey", s.spEy, ey}, {"ez", s.spEz, ez}, {"hx", s.spHx, hx}, {"hy", s.spHy, hy}, {"hz", s.spHz, hz}} {
			if !spansEqual(sp.got, sp.want) {
				t.Errorf("%s: span table %s differs from its definition", c.name, sp.name)
			}
		}
		// The spans must also be worth having: most of the lattice is
		// conductor.
		var visited, total int
		for _, tab := range [][]span{s.spHx, s.spHy, s.spHz} {
			for _, sp := range tab {
				visited += int(sp.hi - sp.lo)
			}
		}
		total = len(s.hx) + len(s.hy) + len(s.hz)
		if visited == 0 || visited >= total {
			t.Errorf("%s: H sweeps visit %d of %d components", c.name, visited, total)
		}
	}
}

// spanTable is one of a solver's six span tables with the array it
// governs, that array's row stride and its rows per k plane.
type spanTable struct {
	name          string
	tab           *[]span
	field         []float64
	stride, plane int
}

func spanTables(s *Sim) []spanTable {
	return []spanTable{
		{"ex", &s.spEx, s.ex, s.nx, s.ny + 1}, {"ey", &s.spEy, s.ey, s.nx + 1, s.ny}, {"ez", &s.spEz, s.ez, s.nx + 1, s.ny + 1},
		{"hx", &s.spHx, s.hx, s.nx + 1, s.ny}, {"hy", &s.spHy, s.hy, s.nx, s.ny + 1}, {"hz", &s.spHz, s.hz, s.nx, s.ny},
	}
}

// TestSpanMutantsFailDifferential seeds the span tables with the
// mistakes a rewrite of them could make and demands that the
// differential test reports each one: an oracle is only as good as the
// bugs it can see.
func TestSpanMutantsFailDifferential(t *testing.T) {
	c := stepperMatrix[3] // asymmetric 3-cell, resolution 6, one core
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
	cfg := c.config(t)

	// Where the field lives after the run decides which rows can expose
	// a shortened span: the end component must be nonzero by then. Rows
	// are taken from the middle cell, away from the port mouths, whose
	// Mur update overwrites what the sweep wrote.
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		refAdvanceOnce(ref)
	}
	type mutant struct {
		name   string
		mutate func(*Sim)
	}
	var mutants []mutant
	for ti, tab := range spanTables(ref) {
		for _, end := range []string{"lo", "hi"} {
			best, bestAbs := -1, 0.0
			for r, sp := range *tab.tab {
				if k := r / tab.plane; k < ref.nz/3 || k > 2*ref.nz/3 || sp.hi-sp.lo < 2 {
					continue
				}
				i := int(sp.lo)
				if end == "hi" {
					i = int(sp.hi) - 1
				}
				if a := math.Abs(tab.field[r*tab.stride+i]); a > bestAbs {
					best, bestAbs = r, a
				}
			}
			if best < 0 {
				t.Fatalf("no %s row carries field at its %s end", tab.name, end)
			}
			ti, end, row := ti, end, best
			mutants = append(mutants, mutant{
				fmt.Sprintf("%s row %d shortened at %s", tab.name, row, end),
				func(s *Sim) {
					sp := &(*spanTables(s)[ti].tab)[row]
					if end == "lo" {
						sp.lo++
					} else {
						sp.hi--
					}
				},
			})
		}
	}
	// The ex span table read with ey's row stride (ny rows a plane
	// where ex has ny+1).
	mutants = append(mutants, mutant{"ex spans indexed with ey's row stride", func(s *Sim) {
		ny := s.ny
		wrong := make([]span, len(s.spEx))
		for k := 0; k <= s.nz; k++ {
			for j := 0; j <= ny; j++ {
				wrong[k*(ny+1)+j] = s.spEx[k*ny+j]
			}
		}
		s.spEx = wrong
	}})

	for _, m := range mutants {
		if err := runDifferential(t, cfg, m.mutate); err == nil {
			t.Errorf("mutant %q passed the differential test", m.name)
		} else {
			t.Logf("mutant %q caught: %v", m.name, err)
		}
	}
}

// TestThreeOfFourHSpanMutantsFail: an H span built from three of the
// four E rows its curl reads. On the stock cavities every feature is at
// least two cells thick and any three rows cover the fourth, so the
// mutant needs a mesh with a one-cell slot: an input port 0.15 high.
// There an H row can have a single active neighbour row, and leaving it
// out freezes components the reference updates.
func TestThreeOfFourHSpanMutantsFail(t *testing.T) {
	cav := hexmesh.DefaultCavity(6)
	cav.InputPort.Height = 0.15
	m, err := hexmesh.BuildCavity(cav)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(m, cav)
	if err := runDifferential(t, cfg, nil); err != nil {
		t.Fatalf("unmutated stepper on the thin-port mesh: %v", err)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tried := 0
	for skip := 0; skip < 4; skip++ {
		_, _, _, hx, hy, hz := naiveSpans(s, skip)
		for _, h := range []struct {
			name      string
			tab, true []span
			set       func(*Sim, []span)
		}{
			{"hx", hx, s.spHx, func(s *Sim, v []span) { s.spHx = v }},
			{"hy", hy, s.spHy, func(s *Sim, v []span) { s.spHy = v }},
			{"hz", hz, s.spHz, func(s *Sim, v []span) { s.spHz = v }},
		} {
			if spansEqual(h.tab, h.true) {
				continue // the other three rows cover this one: an equivalent mutant
			}
			tried++
			h := h
			if err := runDifferential(t, cfg, func(s *Sim) { h.set(s, h.tab) }); err == nil {
				t.Errorf("%s spans without neighbour row %d passed the differential test", h.name, skip)
			} else {
				t.Logf("%s spans without neighbour row %d caught: %v", h.name, skip, err)
			}
		}
	}
	if tried == 0 {
		t.Error("every three-of-four mutant equals the true table on this mesh")
	}
}

// ---- physics gates ----------------------------------------------------

// closedCavity builds a port-less 3-cell cavity: a perfectly conducting
// closed box, the setting in which the Yee scheme conserves energy.
func closedCavity(t testing.TB, res int, courant float64) *Sim {
	t.Helper()
	cav := hexmesh.DefaultCavity(res)
	cav.InputPort, cav.OutputPort = nil, nil
	m, err := hexmesh.BuildCavity(cav)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(m, cav)
	cfg.Courant = courant
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ports) != 0 {
		t.Fatal("closed cavity has ports")
	}
	return s
}

// seedEz writes f onto every active Ez edge (inactive edges must stay
// zero: they are conductor).
func seedEz(s *Sim, f func(i, j, k int) float64) {
	for k := 0; k < s.nz; k++ {
		for j := 0; j <= s.ny; j++ {
			for i := 0; i <= s.nx; i++ {
				if idx := s.iEz(i, j, k); s.mz[idx] {
					s.ez[idx] = f(i, j, k)
				}
			}
		}
	}
}

func dot(a, b []float64) float64 {
	var sum float64
	for i := range a {
		sum += a[i] * b[i]
	}
	return sum
}

// TestClosedCavityConservesLeapfrogEnergy: with no ports the scheme has
// an exact invariant, E(n)·E(n) + H(n-1/2)·H(n+1/2) (the lattice is
// cubic, so every component carries the same volume). It must hold to
// rounding over 2000 steps, and the collocated Energy() diagnostic,
// which is not the invariant, must stay inside a fixed band around it.
func TestClosedCavityConservesLeapfrogEnergy(t *testing.T) {
	s := closedCavity(t, 6, 0.5)
	cav := s.Cfg.Cavity
	zc := cav.PipeLength + cav.CellLength/2
	// A smooth off-centre bump in the first cell: excites many modes.
	seedEz(s, func(i, j, k int) float64 {
		x := s.Mesh.Bounds.Min.X + float64(i)*s.Mesh.Dx - 0.2
		y := s.Mesh.Bounds.Min.Y + float64(j)*s.Mesh.Dy + 0.1
		z := s.Mesh.Bounds.Min.Z + (float64(k)+0.5)*s.Mesh.Dz - zc
		return math.Exp(-(x*x + y*y + z*z) / 0.08)
	})
	e0 := s.Energy()
	if e0 <= 0 {
		t.Fatal("seed put no field on active edges")
	}
	var w0, maxDrift float64
	minE, maxE := e0, e0
	hPrev := make([]float64, len(s.hx)+len(s.hy)+len(s.hz))
	for step := 0; step < 2000; step++ {
		ee := dot(s.ex, s.ex) + dot(s.ey, s.ey) + dot(s.ez, s.ez)
		n := copy(hPrev, s.hx)
		n += copy(hPrev[n:], s.hy)
		copy(hPrev[n:], s.hz)
		s.Advance(1)
		w := ee + dot(hPrev[:len(s.hx)], s.hx) + dot(hPrev[len(s.hx):n], s.hy) + dot(hPrev[n:], s.hz)
		if step == 0 {
			w0 = w
		}
		maxDrift = math.Max(maxDrift, math.Abs(w-w0)/w0)
		e := s.Energy()
		minE, maxE = math.Min(minE, e), math.Max(maxE, e)
	}
	t.Logf("leapfrog energy drift %.3g over 2000 steps; Energy() in [%.4f, %.4f] x initial", maxDrift, minE/e0, maxE/e0)
	if maxDrift > 1e-11 {
		t.Errorf("leapfrog energy drifted by %.3g (relative) over 2000 steps, want rounding only (<= 1e-11)", maxDrift)
	}
	if minE < 0.90*e0 || maxE > 1.10*e0 {
		t.Errorf("Energy() left its band: [%.4f, %.4f] x initial, want within [0.90, 1.10]", minE/e0, maxE/e0)
	}
}

// TestCourantLimit: the stability limit CourantDT states is the real
// one. A closed cavity seeded with edge-to-edge noise (so the fastest
// lattice mode is excited) stays bounded for 2000 steps at 0.99 of the
// limit and has grown a millionfold within 50 steps at 1.10 of it.
func TestCourantLimit(t *testing.T) {
	run := func(factor float64, steps int) (ratio float64, at int) {
		s := closedCavity(t, 6, 0.5)
		s.dt = factor * s.CourantDT() // New refuses factors >= 1
		rng := uint64(2002)
		seedEz(s, func(i, j, k int) float64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return float64(rng>>11)/(1<<53) - 0.5
		})
		e0 := s.Energy()
		for n := 1; n <= steps; n++ {
			s.Advance(1)
			if r := s.Energy() / e0; r > 1e6 || math.IsNaN(r) {
				return r, n
			}
		}
		return s.Energy() / e0, steps
	}
	r, _ := run(0.99, 2000)
	if r > 4 {
		t.Errorf("below the Courant limit the energy grew %.3gx in 2000 steps", r)
	}
	t.Logf("below the limit: %.3gx after 2000 steps", r)
	var at int
	r, at = run(1.10, 50)
	if !(r > 1e6) && !math.IsNaN(r) {
		t.Errorf("10%% above the Courant limit the energy only reached %.3gx in 50 steps", r)
	}
	t.Logf("above the limit: %.3gx at step %d", r, at)
}

// BenchmarkAdvance times the stepper alone on the benchmark's lattice
// (the 3-cell cavity at 16 cells per radius, 32x52x60) for one
// field_stream frame: 37 steps, a quarter drive period. Run with
// -cpu 1,2.
func BenchmarkAdvance(b *testing.B) {
	cav := hexmesh.DefaultCavity(16)
	m, err := hexmesh.BuildCavity(cav)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(DefaultConfig(m, cav))
	if err != nil {
		b.Fatal(err)
	}
	s.AdvancePeriods(2) // fill the structure: no denormals, ports ramped up
	const steps = 37
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Advance(steps)
	}
	cells := float64(m.Nx * m.Ny * m.Nz)
	b.ReportMetric(cells*steps*float64(b.N)/b.Elapsed().Seconds(), "cell_steps/s")
}

// refSampleField is the sampler this package shipped before the padded
// cell table: eight bounds-checked mesh lookups per sample.
func refSampleField(f *FieldFrame, field []vec.V3, p vec.V3) vec.V3 {
	m := f.Mesh
	if !m.Bounds.Contains(p) {
		return vec.V3{}
	}
	fx := (p.X-m.Bounds.Min.X)/m.Dx - 0.5
	fy := (p.Y-m.Bounds.Min.Y)/m.Dy - 0.5
	fz := (p.Z-m.Bounds.Min.Z)/m.Dz - 0.5
	i0 := int(math.Floor(fx))
	j0 := int(math.Floor(fy))
	k0 := int(math.Floor(fz))
	tx := fx - float64(i0)
	ty := fy - float64(j0)
	tz := fz - float64(k0)
	var acc vec.V3
	for dk := 0; dk < 2; dk++ {
		wz := tz
		if dk == 0 {
			wz = 1 - tz
		}
		for dj := 0; dj < 2; dj++ {
			wy := ty
			if dj == 0 {
				wy = 1 - ty
			}
			for di := 0; di < 2; di++ {
				wx := tx
				if di == 0 {
					wx = 1 - tx
				}
				e := m.ElementIndexAt(i0+di, j0+dj, k0+dk)
				if e < 0 {
					continue // conductor contributes zero
				}
				acc = acc.Add(field[e].Scale(wx * wy * wz))
			}
		}
	}
	return acc
}

// TestSampleMatchesReference: the one-base-index sampler returns the
// reference sampler's bits everywhere — interior, against the walls,
// on and just outside every face of the bounds.
func TestSampleMatchesReference(t *testing.T) {
	s := smallSim(t, 6)
	s.AdvancePeriods(3)
	f := s.Snapshot()
	b := s.Mesh.Bounds
	check := func(p vec.V3) {
		t.Helper()
		for _, c := range []struct {
			name  string
			field []vec.V3
			got   vec.V3
		}{{"E", f.E, f.SampleE(p)}, {"B", f.B, f.SampleB(p)}} {
			want := refSampleField(f, c.field, p)
			if math.Float64bits(c.got.X) != math.Float64bits(want.X) ||
				math.Float64bits(c.got.Y) != math.Float64bits(want.Y) ||
				math.Float64bits(c.got.Z) != math.Float64bits(want.Z) {
				t.Fatalf("Sample%s(%v) = %v, reference %v", c.name, p, c.got, want)
			}
		}
	}
	rng := uint64(7)
	next := func() float64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(rng>>11) / (1 << 53)
	}
	size := b.Size()
	for i := 0; i < 20000; i++ {
		// 10 % beyond the bounds on every side.
		check(vec.New(b.Min.X+(1.2*next()-0.1)*size.X, b.Min.Y+(1.2*next()-0.1)*size.Y, b.Min.Z+(1.2*next()-0.1)*size.Z))
	}
	// Faces, edges and corners of the bounds, exactly and one ulp either
	// side: the samples whose base corner falls in the padding.
	axis := func(lo, hi float64) []float64 {
		return []float64{lo, math.Nextafter(lo, hi), math.Nextafter(lo, lo-1), hi, math.Nextafter(hi, lo), math.Nextafter(hi, hi+1), (lo + hi) / 2}
	}
	for _, x := range axis(b.Min.X, b.Max.X) {
		for _, y := range axis(b.Min.Y, b.Max.Y) {
			for _, z := range axis(b.Min.Z, b.Max.Z) {
				check(vec.New(x, y, z))
			}
		}
	}
	if f.SampleE(vec.New(0, 0, s.Cfg.Cavity.TotalLength()/2)).Len() == 0 {
		t.Fatal("field is zero on the axis; the comparison is vacuous")
	}
}
