// Command extract is the paper's "extraction program" (§2.3): it
// converts partitioned data into hybrid representations at a chosen
// density threshold (or point budget). Because the partitioned
// particle file is sorted by increasing leaf density, the points kept
// are a contiguous prefix — extraction is effectively a sequential
// copy, so "different hybrid representations can be created and
// discarded as needed".
//
// Multiple partitioned frames stream through the stage engine: tree
// reads, extractions and hybrid writes overlap across successive
// frames.
//
// Usage:
//
//	extract -in frame5_xpxy -budget 2000000 -volres 64 -out frame5.achy
//	extract -budget 2000000 -out run.achy run_xpxy_0000 run_xpxy_0001 ...
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"strings"
	"time"

	"repro/internal/hybrid"
	"repro/internal/octree"
	"repro/internal/pario"
	"repro/internal/pipeline"
)

// frameJob carries one partitioned frame through the stage chain. The
// tree is dropped after extraction (only its point count is reported)
// so frames queued at the write stage don't pin full particle arrays.
type frameJob struct {
	index  int
	base   string
	tree   *octree.Tree
	points int64
	rep    *hybrid.Representation
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("extract: ")
	var (
		in        = flag.String("in", "", "input base path (reads .oct and .pts); more bases as positional args")
		threshold = flag.Float64("threshold", 0, "leaf-density threshold (0 = use -budget)")
		budget    = flag.Int64("budget", 0, "max halo points when -threshold is 0")
		volres    = flag.Int("volres", 64, "density volume resolution per axis")
		out       = flag.String("out", "", "output hybrid file (.achy)")
		workers   = flag.Int("workers", 2, "frames extracted concurrently")
	)
	flag.Parse()
	inputs := flag.Args()
	if *in != "" {
		inputs = append([]string{*in}, inputs...)
	}
	if len(inputs) == 0 || *out == "" {
		log.Fatal("-out and at least one input base (-in or positional) are required")
	}
	if math.IsNaN(*threshold) || math.IsInf(*threshold, 0) {
		log.Fatalf("-threshold %g must be finite", *threshold)
	}
	if *threshold <= 0 && *budget <= 0 {
		log.Fatal("one of -threshold or -budget is required")
	}
	if *volres < 2 || !hybrid.PlausibleGrid(*volres, *volres, *volres) {
		log.Fatalf("-volres %d must be at least 2 and give at most 2²⁴ voxels", *volres)
	}
	cfg := hybrid.ExtractConfig{
		VolumeRes: *volres,
		Threshold: *threshold,
		Budget:    *budget,
	}
	outName := func(idx int) string {
		if len(inputs) == 1 {
			return *out
		}
		return strings.TrimSuffix(*out, ".achy") + fmt.Sprintf("_%04d.achy", idx)
	}

	start := time.Now()
	pl := pipeline.New(context.Background())
	// Stage 1: read partitioned frames (I/O, serial).
	trees := pipeline.Source(pl, 2, func(_ context.Context, emit func(frameJob) bool) error {
		for i, base := range inputs {
			t, err := pario.ReadTreeFiles(base)
			if err != nil {
				return err
			}
			if !emit(frameJob{index: i, base: base, tree: t}) {
				return nil
			}
		}
		return nil
	})
	// Stage 2: extract (compute, -workers frames at once).
	reps := pipeline.Map(pl, trees, pipeline.StageConfig{Name: "extract", Workers: *workers, Buf: 2},
		func(_ context.Context, j frameJob) (frameJob, error) {
			rep, err := hybrid.Extract(j.tree, cfg)
			if err != nil {
				return j, err
			}
			j.rep = rep
			j.points = int64(len(j.tree.Points))
			j.tree = nil
			return j, nil
		})
	// Stage 3: write hybrids in frame order (I/O, serial).
	pipeline.Sink(pl, reps, "write", func(_ context.Context, j frameJob) error {
		dst := outName(j.index)
		if err := j.rep.WriteFile(dst); err != nil {
			return err
		}
		raw := pario.FrameBytes(j.points)
		fmt.Printf("%s: threshold %.4g, %d halo points, %dx%dx%d volume, %.1fx smaller -> %s\n",
			j.base, j.rep.Threshold, j.rep.NumPoints(),
			j.rep.Volume.Nx, j.rep.Volume.Ny, j.rep.Volume.Nz,
			float64(raw)/float64(j.rep.SizeBytes()), dst)
		return nil
	})
	if err := pl.Wait(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extracted %d frames in %v\n", len(inputs), time.Since(start))
}
