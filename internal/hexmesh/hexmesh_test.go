package hexmesh

import (
	"math"
	"testing"

	"repro/internal/vec"
)

func build3Cell(t *testing.T, res int) (*Mesh, CavityConfig) {
	t.Helper()
	cfg := DefaultCavity(res)
	m, err := BuildCavity(cfg)
	if err != nil {
		t.Fatalf("BuildCavity: %v", err)
	}
	return m, cfg
}

func TestCavityValidate(t *testing.T) {
	good := DefaultCavity(8)
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := good
	bad.Cells = 0
	if bad.Validate() == nil {
		t.Error("accepted zero cells")
	}
	bad = good
	bad.IrisRadius = 2 // > cell radius
	if bad.Validate() == nil {
		t.Error("accepted iris >= cavity radius")
	}
	bad = good
	bad.CellsPerRadius = 2
	if bad.Validate() == nil {
		t.Error("accepted hopeless resolution")
	}
	bad = good
	bad.InputPort = &PortSpec{Cell: 99, Width: 0.5, Height: 0.5}
	if bad.Validate() == nil {
		t.Error("accepted out-of-range port cell")
	}
}

func TestCavityHasElements(t *testing.T) {
	m, _ := build3Cell(t, 8)
	if m.NumElements() == 0 {
		t.Fatal("empty mesh")
	}
	// Sanity: fewer elements than the full lattice (conductor exists).
	if m.NumElements() >= m.Nx*m.Ny*m.Nz {
		t.Error("mesh fills entire lattice; no conductor present")
	}
}

func TestCavityGeometryRegions(t *testing.T) {
	m, cfg := build3Cell(t, 12)
	// Center of the middle cell is vacuum.
	mid := vec.New(0, 0, cfg.cellCenterZ(1))
	if !m.Inside(mid) {
		t.Error("center of middle cell not vacuum")
	}
	// On-axis inside the pipe is vacuum.
	if !m.Inside(vec.New(0, 0, cfg.PipeLength/2)) {
		t.Error("beam pipe not vacuum")
	}
	// Inside pipe wall (r > iris radius in the pipe region) is conductor.
	if m.Inside(vec.New(cfg.IrisRadius+0.1, 0, cfg.PipeLength/2)) {
		t.Error("pipe wall is vacuum")
	}
	// Corner of the cavity cell (r close to the wall) is vacuum.
	if !m.Inside(vec.New(cfg.CellRadius-3*m.Dx, 0, cfg.cellCenterZ(0))) {
		t.Error("cavity interior near wall not vacuum")
	}
	// Outside the cavity radius (no port in x direction) is conductor.
	if m.Inside(vec.New(cfg.CellRadius+0.05, 0, cfg.cellCenterZ(1))) {
		t.Error("beyond cavity wall is vacuum")
	}
	// Inside the iris wall between cells 0 and 1 at large radius: conductor.
	irisZ := cfg.PipeLength + cfg.CellLength + cfg.IrisThickness/2
	if m.Inside(vec.New(cfg.IrisRadius+0.2, 0, irisZ)) {
		t.Error("iris wall is vacuum")
	}
	// On-axis through the iris: vacuum.
	if !m.Inside(vec.New(0, 0, irisZ)) {
		t.Error("iris aperture not vacuum")
	}
	// Input port channel above the first cell: vacuum.
	if !m.Inside(vec.New(0, cfg.CellRadius+cfg.PortLength/2, cfg.cellCenterZ(0))) {
		t.Error("input port channel not vacuum")
	}
	// No port above the middle cell: conductor.
	if m.Inside(vec.New(0, cfg.CellRadius+cfg.PortLength/2, cfg.cellCenterZ(1))) {
		t.Error("phantom port above middle cell")
	}
}

func TestLocateMatchesElementCenters(t *testing.T) {
	m, _ := build3Cell(t, 8)
	for i := 0; i < m.NumElements(); i += 53 {
		e := &m.Elements[i]
		if got := m.Locate(e.Center); got != i {
			t.Fatalf("Locate(center of %d) = %d", i, got)
		}
	}
	if m.Locate(vec.New(100, 100, 100)) != -1 {
		t.Error("located a far-outside point")
	}
}

func TestElementVolumesSumToVacuum(t *testing.T) {
	m, _ := build3Cell(t, 8)
	var sum float64
	for i := range m.Elements {
		sum += m.Elements[i].Volume()
	}
	if sum <= 0 || sum >= m.Bounds.Volume() {
		t.Errorf("vacuum volume %g outside (0, domain %g)", sum, m.Bounds.Volume())
	}
	// Each element volume is the lattice cell volume.
	want := m.Dx * m.Dy * m.Dz
	if got := m.Elements[0].Volume(); math.Abs(got-want) > 1e-12*want {
		t.Errorf("element volume %g, want %g", got, want)
	}
}

func TestElementCountScalesWithResolution(t *testing.T) {
	m8, _ := build3Cell(t, 8)
	m16, _ := build3Cell(t, 16)
	ratio := float64(m16.NumElements()) / float64(m8.NumElements())
	if ratio < 6 || ratio > 10 {
		t.Errorf("element count ratio %g for 2x resolution, want ~8", ratio)
	}
}

func TestTwelveCellLongerThanThree(t *testing.T) {
	c3 := DefaultCavity(8)
	c12 := TwelveCellCavity(8, 0.2)
	if c12.TotalLength() <= c3.TotalLength() {
		t.Error("12-cell structure not longer than 3-cell")
	}
	m, err := BuildCavity(c12)
	if err != nil {
		t.Fatalf("BuildCavity(12): %v", err)
	}
	if m.NumElements() == 0 {
		t.Fatal("empty 12-cell mesh")
	}
}

func TestPortAsymmetryShrinksBottomPort(t *testing.T) {
	cfg := TwelveCellCavity(10, 0.4)
	m, err := BuildCavity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Count vacuum elements in the top and bottom port channels of the
	// input cell.
	zc := cfg.cellCenterZ(cfg.InputPort.Cell)
	top, bottom := 0, 0
	y := cfg.CellRadius + cfg.PortLength/2
	for x := -cfg.CellRadius; x <= cfg.CellRadius; x += m.Dx / 2 {
		if m.Inside(vec.New(x, y, zc)) {
			top++
		}
		if m.Inside(vec.New(x, -y, zc)) {
			bottom++
		}
	}
	if bottom >= top {
		t.Errorf("bottom port (%d samples) not narrower than top (%d)", bottom, top)
	}
}

func TestPortMouth(t *testing.T) {
	m, cfg := build3Cell(t, 10)
	iLo, iHi, kLo, kHi, j, ok := PortMouth(m, cfg, cfg.InputPort, true)
	if !ok {
		t.Fatal("input port mouth not found")
	}
	if iLo >= iHi || kLo >= kHi {
		t.Errorf("degenerate mouth rectangle [%d,%d)x[%d,%d)", iLo, iHi, kLo, kHi)
	}
	// The mouth row must contain vacuum.
	if m.ElementIndexAt((iLo+iHi)/2, j, (kLo+kHi)/2) < 0 {
		t.Error("mouth center is not vacuum")
	}
	if _, _, _, _, _, ok := PortMouth(m, cfg, nil, true); ok {
		t.Error("nil port reported a mouth")
	}
}

func TestMinSpacing(t *testing.T) {
	m, _ := build3Cell(t, 8)
	if m.MinSpacing() <= 0 {
		t.Error("non-positive spacing")
	}
	if m.MinSpacing() > m.Dx+1e-15 {
		t.Errorf("MinSpacing %g > Dx %g", m.MinSpacing(), m.Dx)
	}
}
