// Package compositor implements deterministic sort-last image
// compositing: merging the RGBA+depth partial framebuffers that a
// fleet of render workers produced from disjoint sub-volumes of one
// frame into the single image a lone renderer would have made — the
// IceT idiom behind the paper's terascale ambition, where the data for
// one frame exceeds a node and space itself must be partitioned.
//
// Determinism is the design center. CompositeDepth reproduces the
// depth-buffered rasterizer's fragment semantics exactly: a partial
// pixel lands iff its depth is <= the stored depth, and partials merge
// in ascending partition sequence — the splat submission order — so
// equal-depth ties resolve to the latest submission, exactly as the
// single-node rasterizer resolves them. Every pixel is independent,
// so the merge parallelizes over scanlines with bit-identical output
// at every worker count, and the result is bit-identical to rendering
// the undivided frame regardless of how many partitions it was split
// into or which workers rendered them.
package compositor

import (
	"fmt"
	"sort"

	"repro/internal/par"
	"repro/internal/render"
)

// checkPartials validates the partial set against dst and returns the
// partials in composite order: ascending Seq, stable for equal Seq.
func checkPartials(dst *render.Framebuffer, partials []*render.PartialFrame) ([]*render.PartialFrame, error) {
	if dst == nil {
		return nil, fmt.Errorf("compositor: nil destination framebuffer")
	}
	order := make([]*render.PartialFrame, len(partials))
	copy(order, partials)
	for i, p := range order {
		if p == nil || p.FB == nil {
			return nil, fmt.Errorf("compositor: partial %d is nil", i)
		}
		if p.FB.W != dst.W || p.FB.H != dst.H {
			return nil, fmt.Errorf("compositor: partial %d is %dx%d, destination %dx%d",
				i, p.FB.W, p.FB.H, dst.W, dst.H)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return order[a].Seq < order[b].Seq })
	return order, nil
}

// CompositeDepth merges depth-augmented partials into dst with the
// opaque rasterizer's depth test: per pixel, in ascending partition
// sequence, a partial's pixel overwrites color and depth iff its
// depth is <= the depth already stored. Partials may be passed in any
// order (fleet replies arrive as workers finish); Seq fixes the
// merge order. Pixels of dst not yet covered must hold the cleared
// background (transparent black, +Inf depth), as a partial's own
// uncovered pixels do. workers bounds scanline parallelism (0 =
// par.Workers()); the output is identical at every count.
func CompositeDepth(dst *render.Framebuffer, partials []*render.PartialFrame, workers int) error {
	order, err := checkPartials(dst, partials)
	if err != nil {
		return err
	}
	par.ForChunks(dst.H, workers, func(lo, hi int) {
		for _, p := range order {
			y0, y1 := p.Y0, p.Y0+p.RH
			if y0 < lo {
				y0 = lo
			}
			if y1 > hi {
				y1 = hi
			}
			for y := y0; y < y1; y++ {
				row := y * dst.W
				for x := p.X0; x < p.X0+p.RW; x++ {
					i := row + x
					d := p.FB.Depth[i]
					if d > dst.Depth[i] {
						continue
					}
					ci := i * 4
					dst.Color[ci] = p.FB.Color[ci]
					dst.Color[ci+1] = p.FB.Color[ci+1]
					dst.Color[ci+2] = p.FB.Color[ci+2]
					dst.Color[ci+3] = p.FB.Color[ci+3]
					dst.Depth[i] = d
				}
			}
		}
	})
	return nil
}
