// Command partition is the paper's "partitioning program" (§2.3): it
// reads raw particle frames, organizes the selected 3-D plot of the
// particles into an octree bounded by a maximal subdivision level, and
// writes each result to disk in two parts — the octree nodes and the
// density-sorted particle groups.
//
// Frames stream through the core stage engine: file reads, octree
// builds and tree writes overlap across successive frames, and
// -workers partitions that many frames concurrently.
//
// Usage:
//
//	partition -in beam_0005.acpf -plot x,px,y -maxlevel 8 -out frame5_xpxy
//
// writes frame5_xpxy.oct and frame5_xpxy.pts. With several inputs the
// output base gets _NNNN appended per frame:
//
//	partition -plot x,px,y -out run_xpxy beam_*.acpf
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/beam"
	"repro/internal/core"
	"repro/internal/octree"
	"repro/internal/pario"
)

// parsePlot reads -plot: three distinct axes.
func parsePlot(s string) ([3]beam.Axis, error) {
	parts := strings.Split(s, ",")
	var axes [3]beam.Axis
	if len(parts) != 3 {
		return axes, fmt.Errorf("-plot %q must name three axes like x,px,y", s)
	}
	for i, p := range parts {
		a, err := beam.ParseAxis(strings.TrimSpace(p))
		if err != nil {
			return axes, fmt.Errorf("-plot %q: %w", s, err)
		}
		for _, b := range axes[:i] {
			if b == a {
				return axes, fmt.Errorf("-plot %q names %s twice", s, a)
			}
		}
		axes[i] = a
	}
	return axes, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("partition: ")
	var (
		in       = flag.String("in", "", "input particle frame (.acpf); more frames as positional args")
		plot     = flag.String("plot", "x,y,z", "plot type: three of x,y,z,px,py,pz")
		maxLevel = flag.Int("maxlevel", 8, "maximal octree subdivision level")
		leafCap  = flag.Int("leafcap", 64, "points per leaf before subdividing")
		out      = flag.String("out", "", "output base path (writes .oct and .pts)")
		workers  = flag.Int("workers", 2, "frames partitioned concurrently")
	)
	flag.Parse()
	inputs := flag.Args()
	if *in != "" {
		inputs = append([]string{*in}, inputs...)
	}
	if len(inputs) == 0 || *out == "" {
		log.Fatal("-out and at least one input frame (-in or positional) are required")
	}
	if *workers < 1 {
		log.Fatalf("-workers %d must be at least 1", *workers)
	}
	axes, err := parsePlot(*plot)
	if err != nil {
		log.Fatal(err)
	}
	cfg := octree.DefaultConfig()
	cfg.MaxLevel = *maxLevel
	cfg.LeafCap = *leafCap

	pp := &core.ParticlePipeline{Tree: cfg, Axes: axes}
	start := time.Now()
	s := pp.StreamFrames(context.Background(), core.FrameFileSource(inputs...), core.StreamOptions{
		SkipExtract:      true,
		PartitionWorkers: *workers,
		Buffer:           2,
	})
	var total int64
	for r := range s.Out {
		base := *out
		if len(inputs) > 1 {
			base = fmt.Sprintf("%s_%04d", *out, r.Index)
		}
		if err := pario.WriteTreeFiles(base, r.Tree); err != nil {
			s.Cancel()
			s.Wait()
			log.Fatal(err)
		}
		total += int64(len(r.Tree.Points))
		fmt.Printf("%s: %d particles -> %d nodes, %d leaves, depth %d -> %s.{oct,pts}\n",
			inputs[r.Index], len(r.Tree.Points), len(r.Tree.Nodes),
			r.Tree.NumLeaves(), r.Tree.MaxDepth(), base)
	}
	if err := s.Wait(); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("partitioned %d frames (%d particles) in %v (%.1f Mpts/s)\n",
		len(inputs), total, elapsed, float64(total)/elapsed.Seconds()/1e6)
}
