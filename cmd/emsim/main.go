// Command emsim runs the FDTD time-domain field solver over an n-cell
// accelerator structure — the Tau3P stand-in — and reports Courant
// arithmetic, energy history, and optionally writes field-line files
// per snapshot for the linerender tool.
//
// Usage:
//
//	emsim -cells 3 -res 10 -periods 8 -snapshots 4 -lines 200 -out cavity
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"repro/internal/emsim"
	"repro/internal/fieldline"
	"repro/internal/hexmesh"
	"repro/internal/lineio"
	"repro/internal/seeding"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("emsim: ")
	var (
		cells     = flag.Int("cells", 3, "number of cavity cells (3 = Figs 6-8, 12 = Fig 9)")
		res       = flag.Int("res", 10, "lattice cells per cavity radius")
		periods   = flag.Float64("periods", 8, "drive periods to simulate")
		snapshots = flag.Int("snapshots", 4, "field snapshots to take")
		lines     = flag.Int("lines", 200, "field lines to trace per snapshot (0 = none)")
		asym      = flag.Float64("asym", 0, "port asymmetry (Fig 9 study)")
		out       = flag.String("out", "cavity", "output path prefix")
	)
	flag.Parse()
	// A run that cannot simulate anything is an error, not an empty
	// success: -periods -1 used to print all-zero snapshots and
	// -snapshots 0 nothing at all, both with exit status 0.
	switch {
	case !(*periods > 0) || math.IsInf(*periods, 0):
		log.Fatalf("-periods must be a positive number of drive periods, got %g", *periods)
	case *snapshots < 1:
		log.Fatalf("-snapshots must be at least 1, got %d", *snapshots)
	case *lines < 0:
		log.Fatalf("-lines must be 0 (no tracing) or more, got %d", *lines)
	case !(*asym >= 0 && *asym < 1):
		log.Fatalf("-asym must be in [0,1), got %g", *asym)
	}

	cav := hexmesh.DefaultCavity(*res)
	if *cells != 3 {
		cav = hexmesh.TwelveCellCavity(*res, *asym)
		cav.Cells = *cells
		cav.OutputPort.Cell = *cells - 1
	} else if *asym > 0 {
		cav.InputPort.Asymmetry = *asym
		cav.OutputPort.Asymmetry = *asym
	}
	mesh, err := hexmesh.BuildCavity(cav)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := emsim.New(emsim.DefaultConfig(mesh, cav))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d-cell structure: %d elements, spacing %.4f, dt %.3g (Courant limit %.3g)\n",
		*cells, mesh.NumElements(), mesh.MinSpacing(), sim.DT(), sim.CourantDT())
	fmt.Printf("raw field storage: %.2f MB per time step\n",
		float64(mesh.NumElements()*48)/1e6)

	perSnap := *periods / float64(*snapshots)
	for s := 0; s < *snapshots; s++ {
		sim.AdvancePeriods(perSnap)
		frame := sim.Snapshot()
		fmt.Printf("snapshot %d: step %d, t=%.3f, energy %.4g, maxE %.4g, asym %.4f\n",
			s, frame.Step, frame.Time, sim.Energy(), frame.MaxE(), frame.TransverseAsymmetry())
		if *lines > 0 {
			cfg := seeding.Config{
				TotalLines:    *lines,
				Trace:         fieldline.Config{Step: mesh.MinSpacing() / 2, MaxSteps: 800, MinMag: frame.MaxE() * 1e-4},
				Seed:          uint64(2002 + s),
				Bidirectional: true,
			}
			field := fieldline.FieldFunc(frame.SampleE)
			intensity := func(e int) float64 { return frame.ElementEMagnitude(e) }
			res, err := seeding.SeedLines(mesh, field, intensity, cfg)
			if err != nil {
				log.Fatal(err)
			}
			path := fmt.Sprintf("%s_snap%02d.acfl", *out, s)
			if err := lineio.WriteFile(path, res.Lines); err != nil {
				log.Fatal(err)
			}
			lb := lineio.LinesBytes(res.Lines)
			fmt.Printf("  traced %d lines -> %s (%d bytes, saving %.1fx vs raw field)\n",
				len(res.Lines), path, lb, lineio.SavingFactor(frame.RawBytes(), lb))
		}
	}
}
