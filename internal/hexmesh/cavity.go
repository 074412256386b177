package hexmesh

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// PortSpec describes one rectangular waveguide port pair attached to
// the side walls (+y and -y) of a cavity cell — the coupling structure
// through which "power flows in from the top and bottom through input
// ports" (Fig 9).
type PortSpec struct {
	Cell   int     // which cavity cell the port couples to (0-based)
	Width  float64 // port extent along x
	Height float64 // port extent along z
	// Asymmetry shrinks the -y (bottom) port width by this relative
	// factor. The paper's Fig 9 discussion: "the radial asymmetry in
	// the geometry of the ports causes asymmetry in the electric
	// field"; setting this non-zero reproduces that study.
	Asymmetry float64
}

// CavityConfig describes an n-cell linear accelerator structure: a
// chain of cylindrical cavity cells joined by iris apertures, beam
// pipes on both ends, and waveguide port pairs for power in/out.
type CavityConfig struct {
	Cells         int     // number of accelerating cells (3 for Fig 6-8, 12 for Fig 9)
	CellRadius    float64 // cavity radius
	CellLength    float64 // cavity length along the beam (z) axis
	IrisRadius    float64 // aperture between cells
	IrisThickness float64 // wall thickness between cells
	PipeLength    float64 // beam pipe length on each end
	PortLength    float64 // how far ports extend beyond the cavity wall in y

	// CellsPerRadius sets the lattice resolution: lattice spacing is
	// CellRadius / CellsPerRadius in every direction.
	CellsPerRadius int

	InputPort  *PortSpec // nil for no input port
	OutputPort *PortSpec // nil for no output port
}

// DefaultCavity returns the 3-cell structure of Figs 6-8 at the given
// lattice resolution.
func DefaultCavity(cellsPerRadius int) CavityConfig {
	cfg := CavityConfig{
		Cells:          3,
		CellRadius:     1.0,
		CellLength:     0.8,
		IrisRadius:     0.35,
		IrisThickness:  0.15,
		PipeLength:     0.5,
		PortLength:     0.6,
		CellsPerRadius: cellsPerRadius,
	}
	cfg.InputPort = &PortSpec{Cell: 0, Width: 0.7, Height: 0.5}
	cfg.OutputPort = &PortSpec{Cell: 2, Width: 0.7, Height: 0.5}
	return cfg
}

// TwelveCellCavity returns the 12-cell structure of Fig 9, with the
// asymmetric ports the paper attributes the field asymmetry to.
func TwelveCellCavity(cellsPerRadius int, asymmetry float64) CavityConfig {
	cfg := DefaultCavity(cellsPerRadius)
	cfg.Cells = 12
	cfg.InputPort = &PortSpec{Cell: 0, Width: 0.7, Height: 0.5, Asymmetry: asymmetry}
	cfg.OutputPort = &PortSpec{Cell: 11, Width: 0.7, Height: 0.5, Asymmetry: asymmetry}
	return cfg
}

// Validate reports the first problem with the configuration.
func (c CavityConfig) Validate() error {
	if c.Cells < 1 {
		return fmt.Errorf("hexmesh: cavity needs >= 1 cell, got %d", c.Cells)
	}
	// Every float check is written so that NaN fails it.
	if !(c.CellRadius > 0) || !(c.CellLength > 0) {
		return fmt.Errorf("hexmesh: cell radius/length must be positive")
	}
	if !(c.IrisRadius > 0 && c.IrisRadius < c.CellRadius) {
		return fmt.Errorf("hexmesh: iris radius %g must be in (0, cell radius)", c.IrisRadius)
	}
	if !(c.IrisThickness >= 0) || !(c.PipeLength >= 0) || !(c.PortLength >= 0) {
		return fmt.Errorf("hexmesh: negative geometry length")
	}
	if c.CellsPerRadius < 4 {
		return fmt.Errorf("hexmesh: resolution %d cells/radius too coarse (need >= 4)", c.CellsPerRadius)
	}
	for _, p := range []*PortSpec{c.InputPort, c.OutputPort} {
		if p == nil {
			continue
		}
		if p.Cell < 0 || p.Cell >= c.Cells {
			return fmt.Errorf("hexmesh: port cell %d out of range [0,%d)", p.Cell, c.Cells)
		}
		if !(p.Width > 0) || !(p.Height > 0) {
			return fmt.Errorf("hexmesh: port dimensions must be positive")
		}
		if !(p.Asymmetry >= 0 && p.Asymmetry < 1) {
			return fmt.Errorf("hexmesh: port asymmetry %g outside [0,1)", p.Asymmetry)
		}
	}
	return nil
}

// cellPitch is the z length of one cavity cell plus its downstream iris.
func (c CavityConfig) cellPitch() float64 { return c.CellLength + c.IrisThickness }

// TotalLength returns the full z extent of the structure.
func (c CavityConfig) TotalLength() float64 {
	return 2*c.PipeLength + float64(c.Cells)*c.CellLength + float64(c.Cells-1)*c.IrisThickness
}

// cellCenterZ returns the z coordinate of the center of cavity cell i.
func (c CavityConfig) cellCenterZ(i int) float64 {
	return c.PipeLength + float64(i)*c.cellPitch() + c.CellLength/2
}

// insideVacuum reports whether the world point p is inside the vacuum
// region of the structure.
func (c CavityConfig) insideVacuum(p vec.V3) bool {
	z := p.Z
	r := math.Hypot(p.X, p.Y)
	total := c.TotalLength()
	if z < 0 || z > total {
		return false
	}
	// Beam pipes.
	if z < c.PipeLength || z > total-c.PipeLength {
		return r < c.IrisRadius
	}
	// Which cell or iris?
	local := z - c.PipeLength
	pitch := c.cellPitch()
	cell := int(local / pitch)
	if cell >= c.Cells {
		cell = c.Cells - 1
	}
	within := local - float64(cell)*pitch
	inCavity := within < c.CellLength
	if inCavity && r < c.CellRadius {
		return true
	}
	if !inCavity && r < c.IrisRadius {
		return true // iris aperture
	}
	// Port channels extend beyond the cavity wall in +/-y.
	for _, port := range []*PortSpec{c.InputPort, c.OutputPort} {
		if port == nil {
			continue
		}
		zc := c.cellCenterZ(port.Cell)
		if math.Abs(z-zc) > port.Height/2 {
			continue
		}
		wTop := port.Width
		wBot := port.Width * (1 - port.Asymmetry)
		yMax := c.CellRadius + c.PortLength
		if p.Y > 0 && p.Y < yMax && math.Abs(p.X) < wTop/2 {
			return true
		}
		if p.Y < 0 && p.Y > -yMax && math.Abs(p.X) < wBot/2 {
			return true
		}
	}
	return false
}

// BuildCavity meshes the structure with axis-aligned hexahedra at the
// configured resolution.
func BuildCavity(cfg CavityConfig) (*Mesh, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := cfg.CellRadius / float64(cfg.CellsPerRadius)
	yMax := cfg.CellRadius
	if cfg.InputPort != nil || cfg.OutputPort != nil {
		yMax = cfg.CellRadius + cfg.PortLength
	}
	total := cfg.TotalLength()
	// Even cell counts centered on the beam axis keep the voxel
	// staircase mirror-symmetric in x and y — without this, symmetric
	// geometry meshes asymmetrically and the resonant fields inherit a
	// spurious up/down imbalance.
	evenCeil := func(x float64) int {
		n := int(math.Ceil(x))
		if n%2 != 0 {
			n++
		}
		return n
	}
	nx := evenCeil(2 * cfg.CellRadius / d)
	ny := evenCeil(2 * yMax / d)
	nz := int(math.Ceil(total / d))
	bounds := vec.Box(
		vec.New(-float64(nx)*d/2, -float64(ny)*d/2, 0),
		vec.New(float64(nx)*d/2, float64(ny)*d/2, float64(nz)*d),
	)
	m, err := buildFromMask(bounds, nx, ny, nz, func(i, j, k int) bool {
		center := vec.New(
			bounds.Min.X+(float64(i)+0.5)*d,
			bounds.Min.Y+(float64(j)+0.5)*d,
			bounds.Min.Z+(float64(k)+0.5)*d,
		)
		return cfg.insideVacuum(center)
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// PortMouth returns the lattice-cell rectangle of the given port's
// mouth plane (at the far y extent), which is where the field solver
// applies its excitation and absorbing boundary. top selects the +y
// mouth; the bool result reports whether the port exists.
func PortMouth(m *Mesh, cfg CavityConfig, port *PortSpec, top bool) (iLo, iHi, kLo, kHi, j int, ok bool) {
	if port == nil {
		return 0, 0, 0, 0, 0, false
	}
	w := port.Width
	if !top {
		w = port.Width * (1 - port.Asymmetry)
	}
	zc := cfg.cellCenterZ(port.Cell)
	iLo = int((-w/2 - m.Bounds.Min.X) / m.Dx)
	iHi = int((w/2 - m.Bounds.Min.X) / m.Dx)
	kLo = int((zc - port.Height/2 - m.Bounds.Min.Z) / m.Dz)
	kHi = int((zc + port.Height/2 - m.Bounds.Min.Z) / m.Dz)
	if top {
		j = m.Ny - 1
		// Walk down until the row actually contains vacuum.
		for j > 0 && m.ElementIndexAt((iLo+iHi)/2, j, (kLo+kHi)/2) < 0 {
			j--
		}
	} else {
		j = 0
		for j < m.Ny-1 && m.ElementIndexAt((iLo+iHi)/2, j, (kLo+kHi)/2) < 0 {
			j++
		}
	}
	return iLo, iHi, kLo, kHi, j, true
}
