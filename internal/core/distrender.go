package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/compositor"
	"repro/internal/hybrid"
	"repro/internal/remote"
	"repro/internal/render"
)

// Sort-last distributed rendering: the frame's halo points — the part
// of a terascale frame that grows with the data — split along the
// octree partition into contiguous sub-volumes, each rendered to an
// RGBA+depth partial framebuffer by a fleet render worker
// (render.partial.v1), composited back in partition order
// (compositor.CompositeDepth), with the fixed-size density volume
// ray-cast over the merged image locally. Every step is deterministic,
// so the composited frame is bit-identical to the single-node
// RenderFrame at any partition count, any worker count, and across
// fleet failover.

// splitPoints returns parts+1 ascending cut indices over a frame's n
// points, snapped to octree-cell boundaries where possible: the point
// array is ordered cell by cell with constant per-cell density, so
// any index where the density changes is a cell boundary. Each even
// cut k·n/parts moves to the nearest boundary within half a
// partition's width; a cut inside one giant equal-density run keeps
// its even index (correctness never depends on alignment — only the
// spatial coherence of each partition's depth slab does).
func splitPoints(density []float32, parts int) []int {
	n := len(density)
	cuts := make([]int, parts+1)
	cuts[parts] = n
	window := n / (2 * parts)
	for k := 1; k < parts; k++ {
		t := k * n / parts
		best, bestDist := t, window+1
		for d := 0; d <= window; d++ {
			if i := t - d; i > 0 && density[i] != density[i-1] {
				best, bestDist = i, d
				break
			}
		}
		for d := 1; d <= window && d < bestDist; d++ {
			if i := t + d; i < n && density[i] != density[i-1] {
				best = i
				break
			}
		}
		if best < cuts[k-1] {
			best = cuts[k-1]
		}
		cuts[k] = best
	}
	return cuts
}

// renderDistributed runs one frame's point pass fanned across the
// render fleet in parts sub-volume partitions and composites the
// partials into fb, which must be cleared. There is no local
// rasterizer: the point-pass stats live on the workers.
func renderDistributed(ctx context.Context, fl *remote.Fleet, rep *hybrid.Representation,
	ro RenderOptions, parts int, fb *render.Framebuffer) error {

	cuts := splitPoints(rep.PointDensity, parts)

	// Fan the sub-volume renders out concurrently; the fleet stripes
	// them over its members, bounded by the per-member windows, and
	// re-dispatches a lost partition to a survivor with the identical
	// request bytes. The partials arrive in completion order; Seq
	// restores the partition order at composite time.
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	partials := make([]*render.PartialFrame, parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for k := 0; k < parts; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			lo, hi := cuts[k], cuts[k+1]
			pf, err := fl.ComputeRender(fctx, &remote.RenderPartialRequest{
				Width: ro.Width, Height: ro.Height,
				Seq: k, Offset: lo,
				ViewDir: ro.ViewDir, PointScale: ro.PointScale, Opaque: ro.Opaque,
				Bounds: rep.Bounds, Threshold: rep.Threshold, MaxLeafD: rep.MaxLeafD,
				Points: rep.Points[lo:hi], Density: rep.PointDensity[lo:hi],
			})
			if err != nil {
				errs[k] = fmt.Errorf("partition %d/%d: %w", k, parts, err)
				cancel() // siblings' renders are moot
				return
			}
			partials[k] = pf
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return compositor.CompositeDepth(fb, partials, 0)
}
