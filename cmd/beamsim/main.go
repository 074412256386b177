// Command beamsim runs the particle-core beam-dynamics simulation and
// writes raw particle frames to disk — the stand-in for the IMPACT
// runs that produced the paper's §2 data.
//
// Usage:
//
//	beamsim -n 200000 -periods 30 -frames 10 -mismatch 1.5 -out data/beam
//
// writes the initial state to data/beam_0000.acpf and the ten frames
// after it to data/beam_0001.acpf .. data/beam_0010.acpf.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/beam"
	"repro/internal/pario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("beamsim: ")
	var (
		n        = flag.Int("n", 100000, "number of particles")
		periods  = flag.Int("periods", 20, "lattice periods to simulate")
		frames   = flag.Int("frames", 10, "output frames (evenly spaced)")
		mismatch = flag.Float64("mismatch", 1.5, "envelope mismatch factor (1 = matched)")
		seed     = flag.Int64("seed", 20020101, "initial distribution RNG seed")
		out      = flag.String("out", "beam", "output path prefix")
	)
	flag.Parse()
	if *frames < 1 {
		log.Fatalf("-frames %d must be at least 1", *frames)
	}
	if *periods < 1 {
		log.Fatalf("-periods %d must be at least 1", *periods)
	}

	cfg := beam.DefaultConfig(*n)
	cfg.Mismatch = *mismatch
	cfg.Seed = *seed
	sim, err := beam.NewSim(cfg)
	if err != nil {
		log.Fatal(err)
	}
	m := sim.Matched()
	fmt.Printf("matched envelope: a=%.4f b=%.4f; mismatch %.2f; %d particles\n",
		m.A, m.B, *mismatch, *n)

	if dir := filepath.Dir(*out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	totalSteps := *periods * cfg.StepsPerPeriod
	interval := totalSteps / *frames
	if interval < 1 {
		interval = 1
	}
	written := 0
	save := func(f beam.Frame) {
		path := fmt.Sprintf("%s_%04d.acpf", *out, written)
		if err := pario.WriteFrameFile(path, f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("frame %2d: step %5d  s=%.2f  maxR=%.2f  halo=%.4f  -> %s (%d bytes)\n",
			written, f.Step, f.S, sim.MaxRadius(),
			beam.HaloFraction(f.E, 2.5), path, pario.FrameBytes(int64(f.E.Len())))
		written++
	}
	save(sim.Snapshot())
	for written <= *frames && sim.Steps()+interval <= totalSteps {
		sim.Advance(interval)
		save(sim.Snapshot())
	}
	sim.Advance(totalSteps - sim.Steps())
	fmt.Printf("done: %d frames, %d steps, s=%.2f\n", written, sim.Steps(), sim.S)
}
