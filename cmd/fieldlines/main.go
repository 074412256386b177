// Command fieldlines runs the density-proportional seeding strategy
// (§3.2) standalone over a solved cavity field and writes the
// pre-integrated lines in incremental-loading order. Prefixes of the
// output file are themselves valid incremental renderings (Fig 7).
//
// Usage:
//
//	fieldlines -res 10 -periods 6 -lines 400 -out lines.acfl
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"repro/internal/core"
	"repro/internal/fieldline"
	"repro/internal/lineio"
	"repro/internal/vec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fieldlines: ")
	var (
		res     = flag.Int("res", 10, "lattice cells per cavity radius")
		periods = flag.Float64("periods", 6, "drive periods before tracing")
		lines   = flag.Int("lines", 400, "total field lines to integrate")
		grid    = flag.Int("grid", 0, "trace an NxNxN uniform seed grid concurrently instead of density-proportional seeding")
		workers = flag.Int("workers", 0, "trace workers for -grid mode (0 = all cores)")
		out     = flag.String("out", "lines.acfl", "output line file")
	)
	flag.Parse()
	// Refuse misuse before the solve, which takes most of the run.
	switch {
	case !(*periods > 0) || math.IsInf(*periods, 0):
		log.Fatalf("-periods must be a positive number of drive periods, got %g", *periods)
	case *lines < 1:
		log.Fatalf("-lines must be at least 1, got %d", *lines)
	case *grid < 0:
		log.Fatalf("-grid must be 0 (density seeding) or more, got %d", *grid)
	case *workers < 0:
		log.Fatalf("-workers must be 0 (all cores) or more, got %d", *workers)
	}

	p := core.NewFieldPipeline(*res, *lines)
	frame, err := p.Solve(*periods)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("field solved: t=%.3f, maxE=%.4g\n", frame.Time, frame.MaxE())
	mesh, err := p.Mesh()
	if err != nil {
		log.Fatal(err)
	}

	var traced []*fieldline.Line
	if *grid > 0 {
		// Uniform-grid preview mode: seeds are independent, so the
		// whole batch integrates concurrently on fieldline.TraceBothAll's
		// chunked workers instead of one line at a time.
		var seeds []vec.V3
		b := mesh.Bounds
		n := *grid
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					pt := vec.New(
						b.Min.X+(float64(i)+0.5)/float64(n)*(b.Max.X-b.Min.X),
						b.Min.Y+(float64(j)+0.5)/float64(n)*(b.Max.Y-b.Min.Y),
						b.Min.Z+(float64(k)+0.5)/float64(n)*(b.Max.Z-b.Min.Z),
					)
					if mesh.Inside(pt) {
						seeds = append(seeds, pt)
					}
				}
			}
		}
		cfg := fieldline.Config{
			Step:     mesh.MinSpacing() / 2,
			MaxSteps: 600,
			MinMag:   frame.MaxE() * 1e-4,
			Domain:   mesh.Inside,
		}
		traced, err = fieldline.TraceBothAll(fieldline.FieldFunc(frame.SampleE), seeds, cfg, *workers)
		if err != nil {
			log.Fatal(err)
		}
		kept := traced[:0]
		for _, l := range traced {
			if l.NumPoints() >= 2 {
				kept = append(kept, l)
			}
		}
		traced = kept
		fmt.Printf("traced %d grid lines from %d seeds\n", len(traced), len(seeds))
	} else {
		result, err := p.TraceE(frame)
		if err != nil {
			log.Fatal(err)
		}
		traced = result.Lines
		fmt.Printf("traced %d lines; density correlation at full set %.3f, at half %.3f\n",
			len(result.Lines),
			result.DensityCorrelation(mesh, len(result.Lines)),
			result.DensityCorrelation(mesh, len(result.Lines)/2))
	}

	if err := lineio.WriteFile(*out, traced); err != nil {
		log.Fatal(err)
	}
	lb := lineio.LinesBytes(traced)
	fmt.Printf("wrote %s (%d bytes; raw field %d bytes; saving %.1fx)\n",
		*out, lb, frame.RawBytes(), lineio.SavingFactor(frame.RawBytes(), lb))
}
