package render

import (
	"repro/internal/hybrid"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/sortx"
	"repro/internal/vec"
)

// TileSize is the edge of the fixed screen tiles the batched path bins
// primitives into. Each tile is rasterized by exactly one worker, so
// the pixels it owns are written without locks or atomics.
const TileSize = 32

// Primitive kinds inside a batch.
const (
	kindLine = iota
	kindTri
)

// batchPrim is one submitted primitive in submission order.
type batchPrim struct {
	kind int32
	idx  int32 // index into the per-kind submission slice
}

type linePrim struct {
	p0, p1 vec.V3
	width  float64
	c0, c1 hybrid.RGBA
}

type triPrim struct {
	i0, i1, i2 int32 // indices into Batch.verts
}

// PointSplat is one batched point submission.
type PointSplat struct {
	Pos    vec.V3
	Radius float64 // splat radius in pixels
	Color  hybrid.RGBA
}

// LineSeg is one batched line-segment submission.
type LineSeg struct {
	P0, P1 vec.V3
	Width  float64
	C0, C1 hybrid.RGBA
}

// Batch records primitives for deferred, tile-parallel rasterization.
// Primitives of any kind may be mixed; submission order is preserved
// exactly, so a Flush produces the same image — bit for bit — as
// issuing the same sequence of immediate Draw* calls, at every worker
// count. Stats are folded into the rasterizer at Flush. A batch may be
// reused after Flush; it keeps its capacity.
//
// Triangles are indexed: a submitted triangle is three indices into the
// batch's vertex array, so the vertices a strip shares are stored, and
// at Flush transformed, once. Flush turns each triangle into one
// triSetup record holding the same three indices plus its edge
// coefficients; attributes are read through the indices when a fragment
// needs them. Only a triangle the near plane cuts needs more — its
// interpolated vertices and, for a quad, a second record — and those go
// to an overflow array per setup chunk (see overflow), addressed by
// negative indices.
//
// A batch owns its submission buffers. Everything a Flush allocates
// beyond them — transformed vertices, records, overflow, tile pairs —
// is scratch borrowed from the package's free list and returned before
// Flush does; the typed entry points (DrawLineBatch,
// DrawTriangleStripBatchFunc) borrow their whole batch from it.
type Batch struct {
	r     *Rasterizer
	prims []batchPrim
	lines []linePrim
	tris  []triPrim
	verts []Vertex

	sc *flushScratch // the scratch this batch is part of, for a borrowed batch
}

// NewBatch returns an empty batch bound to the rasterizer.
func (r *Rasterizer) NewBatch() *Batch { return &Batch{r: r} }

// Line submits one line segment.
func (b *Batch) Line(p0, p1 vec.V3, width float64, c0, c1 hybrid.RGBA) {
	b.prims = append(b.prims, batchPrim{kindLine, int32(len(b.lines))})
	b.lines = append(b.lines, linePrim{p0, p1, width, c0, c1})
}

// Triangle submits one triangle.
func (b *Batch) Triangle(v0, v1, v2 Vertex) {
	base := int32(len(b.verts))
	b.verts = append(b.verts, v0, v1, v2)
	b.prims = append(b.prims, batchPrim{kindTri, int32(len(b.tris))})
	b.tris = append(b.tris, triPrim{base, base + 1, base + 2})
}

// stripTriangles submits the n-2 triangles of the strip held in
// b.verts[base : base+n].
func (b *Batch) stripTriangles(base, n int) {
	for i := 0; i+2 < n; i++ {
		v0, v1 := int32(base+i), int32(base+i+1)
		if i%2 == 1 {
			v0, v1 = v1, v0
		}
		b.prims = append(b.prims, batchPrim{kindTri, int32(len(b.tris))})
		b.tris = append(b.tris, triPrim{v0, v1, int32(base + i + 2)})
	}
}

// reset empties the batch for reuse, keeping capacity.
func (b *Batch) reset() {
	b.prims = b.prims[:0]
	b.lines = b.lines[:0]
	b.tris = b.tris[:0]
	b.verts = b.verts[:0]
}

// tileRun is one tile's contiguous slice of the binned pair array.
type tileRun struct{ lo, hi int }

// flushScratch holds the reusable working storage of one flush —
// Batch.Flush or DrawPointBatch — the submission buffers of a borrowed
// batch, and the plane and op buffer of one codec call (rle.go).
type flushScratch struct {
	batch Batch

	plane, ops []byte

	lns   []lineSetup
	tv    []tvert
	tris  []triSetup
	over  []overflow
	stats [][2]int64 // lines and triangles drawn, per setup chunk
	offs  []int
	pairs []sortx.KV
	sscr  []sortx.KV
	runs  []tileRun
	frags []int64
}

// scratchList is the free list every flush borrows its scratch from,
// so a stream that flushes once a frame reuses one scratch — as large as
// the largest flush it has served, a few MB for a 50k-triangle frame —
// instead of allocating and zeroing it again. A scratch whose codec
// plane or ops grew past pipeline.MaxKeptBytes is not put back.
var scratchList = pipeline.NewFreeList(func() *flushScratch { return new(flushScratch) })

func getScratch() *flushScratch { return scratchList.Get() }

func putScratch(sc *flushScratch) {
	if max(cap(sc.plane), cap(sc.ops)) <= pipeline.MaxKeptBytes {
		scratchList.Put(sc)
	}
}

// grow returns s resized to n elements, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	return (*s)[:n]
}

// tileSpan counts the tiles a screen bounding box covers.
func tileSpan(x0, y0, x1, y1 int) int {
	return (x1/TileSize - x0/TileSize + 1) * (y1/TileSize - y0/TileSize + 1)
}

// Flush projects, bins and rasterizes every batched primitive, then
// empties the batch. The phases all run on r.Workers goroutines
// (0 = par.Workers()):
//
//  1. setup — every submitted vertex is transformed once, then
//     primitives are projected and screen-culled in parallel; every
//     primitive owns a fixed slot in the setup arrays, so no ordering
//     work is needed afterwards;
//  2. binning — each visible record expands into (tile key, sequence)
//     pairs which a stable sortx radix pass groups by tile, keeping
//     submission order inside every tile;
//  3. tiles — each tile's primitives are replayed in order by its
//     owning worker through the same raster kernels the immediate
//     path uses, clipped to the tile rect.
//
// Every pixel belongs to exactly one tile, so no two workers touch the
// same framebuffer word and the fragment sequence per pixel equals the
// serial path's — the image is bit-identical at every worker count.
func (b *Batch) Flush() {
	r := b.r
	n := len(b.prims)
	if n == 0 {
		return
	}
	workers := r.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	sc := b.sc
	if sc == nil {
		sc = getScratch()
		defer putScratch(sc)
	}
	defer b.reset()

	// Phase 1a — transform every vertex once.
	tv := grow(&sc.tv, len(b.verts))
	par.ForChunks(len(b.verts), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r.transformVertex(b.verts[i].Pos, &tv[i])
		}
	})
	if workers == 1 {
		// One worker gains nothing from binning: replay the submission
		// through the immediate-mode kernels, which ARE the reference
		// the tile path reproduces, so the output is identical.
		b.flushSerial(tv, sc)
		return
	}

	// Phase 1b — parallel setup into slot-indexed arrays. offs[i+1]
	// temporarily holds prim i's pair count; an empty triangle record
	// carries an empty-bbox sentinel (x1 < x0). Each setup chunk has its
	// own counters and overflow, found again from a prim's index as
	// over[plan.Index(i)].
	lns := grow(&sc.lns, len(b.lines))
	tris := grow(&sc.tris, len(b.tris))
	offs := grow(&sc.offs, n+1)
	plan := par.Chunks(n, workers)
	stats := grow(&sc.stats, plan.Count)
	over := grow(&sc.over, plan.Count)
	par.ForChunks(n, workers, func(lo, hi int) {
		st := &stats[plan.Index(lo)]
		*st = [2]int64{}
		ov := &over[plan.Index(lo)]
		ov.reset()
		src := triSource{verts: b.verts, tv: tv, over: ov}
		for i := lo; i < hi; i++ {
			pr := b.prims[i]
			cnt := 0
			switch pr.kind {
			case kindLine:
				lp := &b.lines[pr.idx]
				s := &lns[pr.idx]
				drawn, visible := r.setupLine(lp.p0, lp.p1, lp.width, lp.c0, lp.c1, s)
				if drawn {
					st[0]++
					if visible {
						cnt = tileSpan(s.x0, s.y0, s.x1, s.y1)
					}
				}
			case kindTri:
				st[1]++
				tp := b.tris[pr.idx]
				s := &tris[pr.idx]
				if r.setupClipped(&src, tp.i0, tp.i1, tp.i2, s) > 0 {
					cnt = tileSpan(s.x0, s.y0, s.x1, s.y1)
					if s.next >= 0 {
						s2 := &ov.tris[s.next]
						cnt += tileSpan(s2.x0, s2.y0, s2.x1, s2.y1)
					}
				}
			}
			offs[i+1] = cnt
		}
	})
	for _, st := range stats {
		r.LineCount += st[0]
		r.TriangleCount += st[1]
	}

	// Prefix-sum pair counts into offsets.
	offs[0] = 0
	for i := 0; i < n; i++ {
		offs[i+1] += offs[i]
	}
	nPairs := offs[n]
	if nPairs == 0 {
		return
	}

	// Phase 2 — expand records into (tile, sequence) pairs and group
	// them by tile with the stable radix sort. The sequence value
	// encodes (prim index, which triangle of a clipped quad), so
	// ascending order inside a tile is exactly submission order.
	tw := (r.FB.W + TileSize - 1) / TileSize
	pairs := grow(&sc.pairs, nPairs)
	emitPairs := func(o int, x0, y0, x1, y1 int, seq int64) int {
		for ty := y0 / TileSize; ty <= y1/TileSize; ty++ {
			for tx := x0 / TileSize; tx <= x1/TileSize; tx++ {
				pairs[o] = sortx.KV{K: uint64(ty*tw + tx), V: seq}
				o++
			}
		}
		return o
	}
	par.ForChunks(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			o := offs[i]
			if offs[i+1] == o {
				continue
			}
			pr := b.prims[i]
			switch pr.kind {
			case kindLine:
				s := &lns[pr.idx]
				emitPairs(o, s.x0, s.y0, s.x1, s.y1, int64(i)<<1)
			case kindTri:
				s := &tris[pr.idx]
				o = emitPairs(o, s.x0, s.y0, s.x1, s.y1, int64(i)<<1)
				if s.next >= 0 {
					s2 := &over[plan.Index(i)].tris[s.next]
					emitPairs(o, s2.x0, s2.y0, s2.x1, s2.y1, int64(i)<<1|1)
				}
			}
		}
	})
	sscr := grow(&sc.sscr, nPairs)
	sortx.PairsScratch(pairs, sscr, workers)
	runs := tileRuns(sc, pairs)

	// Phase 3 — rasterize tiles concurrently, one owner per tile.
	if r.fragmentSink != nil {
		r.fragmentSink.beginShards(len(runs))
	}
	frags := grow(&sc.frags, len(runs))
	par.ForChunks(len(runs), workers, func(rlo, rhi int) {
		src := triSource{verts: b.verts, tv: tv}
		for ri := rlo; ri < rhi; ri++ {
			run := runs[ri]
			e := tileCtx(r, int(pairs[run.lo].K), tw, ri)
			for pi := run.lo; pi < run.hi; pi++ {
				seq := pairs[pi].V
				i := int(seq >> 1)
				pr := b.prims[i]
				switch pr.kind {
				case kindLine:
					rasterLine(&lns[pr.idx], &e)
				case kindTri:
					src.over = &over[plan.Index(i)]
					s := &tris[pr.idx]
					if seq&1 == 1 {
						s = &src.over.tris[s.next]
					}
					rasterTriangle(s, &src, &e)
				}
			}
			frags[ri] = e.frags
		}
	})
	if r.fragmentSink != nil {
		r.fragmentSink.endShards()
	}
	for _, f := range frags {
		r.FragmentCount += f
	}
}

// tileRuns returns the boundaries of each tile's run in the sorted
// pairs, in sc.runs.
func tileRuns(sc *flushScratch, pairs []sortx.KV) []tileRun {
	runs := sc.runs[:0]
	lo := 0
	for i := 1; i <= len(pairs); i++ {
		if i == len(pairs) || pairs[i].K != pairs[lo].K {
			runs = append(runs, tileRun{lo, i})
			lo = i
		}
	}
	sc.runs = runs
	return runs
}

// tileCtx returns the emit context of one tile: its rect clipped to the
// screen, and the run index as the sink shard.
func tileCtx(r *Rasterizer, tile, tw, shard int) emitCtx {
	tx, ty := tile%tw, tile/tw
	return emitCtx{
		r:     r,
		x0:    tx * TileSize,
		y0:    ty * TileSize,
		x1:    min(tx*TileSize+TileSize-1, r.FB.W-1),
		y1:    min(ty*TileSize+TileSize-1, r.FB.H-1),
		shard: shard,
	}
}

// flushSerial replays the batch in submission order on the calling
// goroutine through the immediate-mode kernels — the single-worker
// path. Triangles read the vertices Flush has already transformed, so
// a strip's shared vertices are transformed once here too.
func (b *Batch) flushSerial(tv []tvert, sc *flushScratch) {
	r := b.r
	ov := &grow(&sc.over, 1)[0]
	src := triSource{verts: b.verts, tv: tv, over: ov}
	e := r.screenCtx()
	var s triSetup
	for _, pr := range b.prims {
		switch pr.kind {
		case kindLine:
			lp := &b.lines[pr.idx]
			r.DrawLine(lp.p0, lp.p1, lp.width, lp.c0, lp.c1)
		case kindTri:
			r.TriangleCount++
			tp := b.tris[pr.idx]
			ov.reset()
			drawSetup(r.setupClipped(&src, tp.i0, tp.i1, tp.i2, &s), &s, &src, &e)
		}
	}
	r.FragmentCount += e.frags
}

// getBatch borrows a scratch from the free list and returns the batch
// inside it, bound to r; putBatch returns both. The typed entry points
// use the pair so that a flush per frame reuses its submission buffers
// as well as its working storage.
func getBatch(r *Rasterizer) *Batch {
	sc := getScratch()
	b := &sc.batch
	b.r, b.sc = r, sc
	return b
}

func putBatch(b *Batch) {
	b.r = nil
	putScratch(b.sc)
}

// DrawPointBatch splats every point through the tile-parallel backend;
// equivalent to calling DrawPoint for each splat in order.
//
// This is the hybrid viewer's hot path, so it skips the generic batch
// machinery: point setup is a couple of matrix applies, cheap enough
// to recompute per phase directly from the caller's slice, which
// keeps the flush free of per-splat intermediate storage (only the
// tile pairs are materialized).
func (r *Rasterizer) DrawPointBatch(splats []PointSplat) {
	n := len(splats)
	if n == 0 {
		return
	}
	workers := r.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	if workers == 1 {
		for i := range splats {
			r.DrawPoint(splats[i].Pos, splats[i].Radius, splats[i].Color)
		}
		return
	}
	sc := getScratch()
	defer putScratch(sc)

	// Pass 1 — project, cull, and count covered tiles per splat.
	offs := grow(&sc.offs, n+1)
	plan := par.Chunks(n, workers)
	stats := make([]int64, plan.Count)
	par.ForChunks(n, workers, func(lo, hi int) {
		var s pointSetup
		count := int64(0)
		for i := lo; i < hi; i++ {
			sp := &splats[i]
			cnt := 0
			projected, visible := r.setupPoint(sp.Pos, sp.Radius, sp.Color, &s)
			if projected {
				count++
				if visible {
					cnt = tileSpan(s.x0, s.y0, s.x1, s.y1)
				}
			}
			offs[i+1] = cnt
		}
		stats[plan.Index(lo)] = count
	})
	for _, c := range stats {
		r.PointCount += c
	}
	offs[0] = 0
	for i := 0; i < n; i++ {
		offs[i+1] += offs[i]
	}
	nPairs := offs[n]
	if nPairs == 0 {
		return
	}

	// Pass 2 — expand into (tile, splat) pairs and group by tile.
	tw := (r.FB.W + TileSize - 1) / TileSize
	pairs := grow(&sc.pairs, nPairs)
	par.ForChunks(n, workers, func(lo, hi int) {
		var s pointSetup
		for i := lo; i < hi; i++ {
			o := offs[i]
			if offs[i+1] == o {
				continue
			}
			sp := &splats[i]
			r.setupPoint(sp.Pos, sp.Radius, sp.Color, &s)
			for ty := s.y0 / TileSize; ty <= s.y1/TileSize; ty++ {
				for tx := s.x0 / TileSize; tx <= s.x1/TileSize; tx++ {
					pairs[o] = sortx.KV{K: uint64(ty*tw + tx), V: int64(i)}
					o++
				}
			}
		}
	})
	sscr := grow(&sc.sscr, nPairs)
	sortx.PairsScratch(pairs, sscr, workers)
	runs := tileRuns(sc, pairs)

	// Pass 3 — rasterize tiles concurrently, replaying each tile's
	// splats in submission order.
	if r.fragmentSink != nil {
		r.fragmentSink.beginShards(len(runs))
	}
	frags := grow(&sc.frags, len(runs))
	par.ForChunks(len(runs), workers, func(rlo, rhi int) {
		var s pointSetup
		for ri := rlo; ri < rhi; ri++ {
			run := runs[ri]
			e := tileCtx(r, int(pairs[run.lo].K), tw, ri)
			for pi := run.lo; pi < run.hi; pi++ {
				sp := &splats[pairs[pi].V]
				r.setupPoint(sp.Pos, sp.Radius, sp.Color, &s)
				rasterPoint(&s, &e)
			}
			frags[ri] = e.frags
		}
	})
	if r.fragmentSink != nil {
		r.fragmentSink.endShards()
	}
	for _, f := range frags {
		r.FragmentCount += f
	}
}

// DrawLineBatch draws every segment through the tile-parallel backend;
// equivalent to calling DrawLine for each segment in order.
func (r *Rasterizer) DrawLineBatch(segs []LineSeg) {
	b := getBatch(r)
	for _, s := range segs {
		b.Line(s.P0, s.P1, s.Width, s.C0, s.C1)
	}
	b.Flush()
	putBatch(b)
}

// DrawTriangleStripBatchFunc draws len(counts) strips, in order, whose
// vertices the caller generates in place: strip k has counts[k]
// vertices and fill(k, dst) must write every one of them to dst, which
// is the batch's own vertex storage (its previous contents are
// unspecified). fill is called once per strip, concurrently on
// r.Workers goroutines, so it must only read shared state. This is how
// a caller that computes its vertices (sos.RenderLines) avoids a slice
// per strip and a copy of each into the batch.
func (r *Rasterizer) DrawTriangleStripBatchFunc(counts []int, fill func(strip int, dst []Vertex)) {
	b := getBatch(r)
	total := 0
	for _, c := range counts {
		b.stripTriangles(total, c)
		total += c
	}
	b.verts = grow(&b.verts, total)
	verts := b.verts
	par.ForChunks(len(counts), r.Workers, func(lo, hi int) {
		off := 0
		for _, c := range counts[:lo] {
			off += c
		}
		for k := lo; k < hi; k++ {
			fill(k, verts[off:off+counts[k]:off+counts[k]])
			off += counts[k]
		}
	})
	b.Flush()
	putBatch(b)
}
