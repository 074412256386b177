// Command hybridview is the offscreen version of the paper's desktop
// viewer (§2.4): it loads hybrid frames, applies the inverse-linked
// transfer functions, and renders PNG images — volume part ray-cast,
// halo points splatted, from any view direction. With multiple input
// frames it steps through them like the viewer's keyboard animation,
// timing each frame load as in §2.5.
//
// Frames stream through the stage engine: frame N+1 loads while frame
// N renders and frame N-1 encodes to PNG, with -workers rendering that
// many frames concurrently into a recycled framebuffer pool.
//
// Usage:
//
//	hybridview -out beam.png -size 512 -view 0.4,0.3,1 frame5.achy frame6.achy
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/beam"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/pario"
	"repro/internal/pipeline"
	"repro/internal/render"
	"repro/internal/vec"
	"repro/internal/volren"
)

func parseVec(s string) (vec.V3, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return vec.V3{}, fmt.Errorf("view %q must be dx,dy,dz", s)
	}
	var v [3]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return vec.V3{}, err
		}
		v[i] = f
	}
	return vec.New(v[0], v[1], v[2]), nil
}

// viewJob carries one hybrid frame through load → render → encode.
type viewJob struct {
	index      int
	path       string
	rep        *hybrid.Representation
	loadTime   time.Duration
	renderTime time.Duration
	fb         *render.Framebuffer
	points     int64
	samples    int64
	fetched    int64 // of samples, those that read voxels
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hybridview: ")
	var (
		out       = flag.String("out", "frame.png", "output PNG (multi-frame: _NNNN inserted)")
		size      = flag.Int("size", 512, "image size in pixels (square)")
		view      = flag.String("view", "0.4,0.3,1", "view direction dx,dy,dz")
		pointSize = flag.Float64("pointsize", 1.5, "point splat radius in pixels")
		opaque    = flag.Bool("opaque", false, "draw points fully opaque (Fig 4 style)")
		attr      = flag.String("attr", "", "dynamic point property: 'temperature' (needs -frame)")
		rawFrame  = flag.String("frame", "", "raw particle frame (.acpf) for -attr lookups")
		workers   = flag.Int("workers", 2, "frames rendered concurrently")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		log.Fatal("no input .achy frames given")
	}
	if !(*pointSize > 0) || math.IsInf(*pointSize, 1) {
		log.Fatalf("-pointsize %g must be positive and finite", *pointSize)
	}
	dir, err := parseVec(*view)
	if err != nil {
		log.Fatal(err)
	}
	// Dynamic point property (§2.5): computed per point at draw time
	// from the ORIGINAL particle data, not baked into the hybrid file.
	var attrFn volren.PointAttr
	if *attr != "" {
		if *rawFrame == "" {
			log.Fatal("-attr requires -frame (the raw particle data)")
		}
		raw, err := pario.ReadFrameFile(*rawFrame)
		if err != nil {
			log.Fatal(err)
		}
		switch *attr {
		case "temperature":
			attrFn = volren.PointAttr(beam.Temperature(raw.E))
		default:
			log.Fatalf("unknown attribute %q (supported: temperature)", *attr)
		}
	}

	paths := flag.Args()
	fbs := pipeline.NewFreeList(func() *render.Framebuffer {
		fb, err := render.NewFramebuffer(*size, *size)
		if err != nil {
			log.Fatal(err)
		}
		return fb
	})

	pl := pipeline.New(context.Background())
	// Stage 1: load hybrid frames (I/O, serial, timed per §2.5).
	loaded := pipeline.Source(pl, 2, func(_ context.Context, emit func(viewJob) bool) error {
		for i, path := range paths {
			start := time.Now()
			rep, err := hybrid.ReadFile(path)
			if err != nil {
				return err
			}
			if !emit(viewJob{index: i, path: path, rep: rep, loadTime: time.Since(start)}) {
				return nil
			}
		}
		return nil
	})
	// Stage 2: render into recycled framebuffers.
	rendered := pipeline.Map(pl, loaded, pipeline.StageConfig{Name: "render", Workers: *workers, Buf: 2},
		func(_ context.Context, j viewJob) (viewJob, error) {
			tf, err := core.DefaultTF(j.rep)
			if err != nil {
				return j, err
			}
			cam, err := render.LookAtBounds(j.rep.Bounds, dir, math.Pi/3, 1)
			if err != nil {
				return j, err
			}
			fb := fbs.Get()
			fb.Clear(hybrid.RGBA{})
			start := time.Now()
			var rast *render.Rasterizer
			var vr *volren.Renderer
			if attrFn != nil {
				rast, vr, err = volren.RenderHybridDynamic(j.rep, tf, fb, cam, *pointSize, attrFn, hybrid.HeatMap())
			} else {
				rast, vr, err = volren.RenderHybrid(j.rep, tf, fb, cam, *pointSize, *opaque)
			}
			if err != nil {
				fbs.Put(fb)
				return j, err
			}
			j.renderTime = time.Since(start)
			j.fb, j.points, j.samples, j.fetched = fb, rast.PointCount, vr.SampleCount, vr.FetchCount
			return j, nil
		})
	// Stage 3: encode PNGs in frame order, recycling framebuffers.
	pipeline.Sink(pl, rendered, "encode", func(_ context.Context, j viewJob) error {
		dst := *out
		if len(paths) > 1 {
			dst = strings.TrimSuffix(*out, ".png") + fmt.Sprintf("_%04d.png", j.index)
		}
		err := j.fb.WritePNG(dst)
		fbs.Put(j.fb)
		if err != nil {
			return err
		}
		fmt.Printf("%s: load %v (%.1f MB/s), render %v (%d points, %d/%d volume samples fetched) -> %s\n",
			j.path, j.loadTime,
			float64(j.rep.SizeBytes())/j.loadTime.Seconds()/1e6,
			j.renderTime, j.points, j.fetched, j.samples, dst)
		return nil
	})
	if err := pl.Wait(); err != nil {
		log.Fatal(err)
	}
}
