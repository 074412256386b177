package render

import (
	"repro/internal/par"
	"repro/internal/pipeline"
)

type triPrim struct {
	i0, i1, i2 int32 // indices into Batch.verts
}

// Batch records triangles for deferred rasterization in parallel row
// bands. Submission order is preserved exactly, so a Flush produces
// the same image — bit for bit — as issuing the same sequence of
// DrawTriangle calls, at every worker count. Stats are folded into the
// rasterizer at Flush. A batch may be reused after Flush; it keeps its capacity.
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
// beyond them — transformed vertices, records, overflow, per-band
// fragment counts — is scratch borrowed from the package's free list
// and returned before Flush does; DrawTriangleStripBatchFunc borrows
// its whole batch from it.
type Batch struct {
	r     *Rasterizer
	tris  []triPrim
	verts []Vertex

	sc *flushScratch // the scratch this batch is part of, for a borrowed batch
}

// NewBatch returns an empty batch bound to the rasterizer.
func (r *Rasterizer) NewBatch() *Batch { return &Batch{r: r} }

// Triangle submits one triangle.
func (b *Batch) Triangle(v0, v1, v2 Vertex) {
	base := int32(len(b.verts))
	b.verts = append(b.verts, v0, v1, v2)
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
		b.tris = append(b.tris, triPrim{v0, v1, int32(base + i + 2)})
	}
}

// reset empties the batch for reuse, keeping capacity.
func (b *Batch) reset() {
	b.tris = b.tris[:0]
	b.verts = b.verts[:0]
}

// flushScratch holds the reusable working storage of one Batch.Flush
// (transformed vertices, one triSetup per triangle, the per-chunk
// overflow, and one fragment count and one shading fragment per row
// band), the submission buffers of a borrowed batch, and the plane and
// op buffer of one codec call (rle.go, quant.go, partial.go, delta.go).
//
// It also keeps the chunk bodies of a flush's parallel phases and of
// DrawTriangleStripBatchFunc's strip fill, bound once as method values
// like octree.Builder's, so a warm flush allocates nothing. The state
// those bodies read sits in fields, set for one call and cleared when
// it returns, so a scratch on the free list keeps no caller's data.
type flushScratch struct {
	batch Batch

	plane, ops []byte

	tv    []tvert
	tris  []triSetup
	over  []overflow
	frags []int64
	slots []Fragment

	// One call's state, read by the bodies below.
	r           *Rasterizer
	verts       []Vertex
	prims       []triPrim
	setup, band par.Plan
	counts      []int
	fill        func(strip int, dst []Vertex)

	transformBody, setupBody, bandBody, fillBody func(lo, hi int)
}

// scratchList is the free list every Batch.Flush and codec call
// borrows its scratch from, so a stream that flushes once a frame
// reuses one scratch — as large as the largest flush it has served, a
// few MB of vertices and setup records for a 50k-triangle frame —
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

// Flush projects and rasterizes every batched triangle, then empties
// the batch. Every phase is cut into par.Workers() chunks, which
// follows GOMAXPROCS:
//
//  1. setup — every submitted vertex is transformed once, then
//     triangles are clipped, projected and screen-culled in parallel;
//     every triangle owns a fixed slot in the setup arrays, so no
//     ordering work is needed afterwards;
//  2. bands — the screen is cut into contiguous row bands, and each
//     band replays every set-up triangle that meets its rows, in
//     submission order, through the same raster kernel DrawTriangle
//     uses, clipped to the band.
//
// Every pixel belongs to exactly one band, so no two workers touch the
// same framebuffer word and the fragment sequence per pixel equals the
// serial path's — the image is bit-identical at every worker count.
func (b *Batch) Flush() {
	r := b.r
	n := len(b.tris)
	if n == 0 {
		return
	}
	sc := b.sc
	if sc == nil {
		sc = getScratch()
		defer putScratch(sc)
	}
	defer b.reset()
	r.TriangleCount += int64(n)
	sc.flush(r, b.verts, b.tris)
}

// bind binds the scratch's chunk bodies, once.
func (sc *flushScratch) bind() {
	if sc.transformBody == nil {
		sc.transformBody, sc.setupBody, sc.bandBody, sc.fillBody = sc.transformChunk, sc.setupChunk, sc.bandChunk, sc.fillChunk
	}
}

// flush runs Flush's phases over verts and prims on sc.
func (sc *flushScratch) flush(r *Rasterizer, verts []Vertex, prims []triPrim) {
	sc.bind()
	workers := par.Workers()
	n := len(prims)
	sc.r, sc.verts, sc.prims = r, verts, prims

	// Phase 1a — transform every vertex once.
	sc.tv = grow(&sc.tv, len(verts))
	par.ForChunks(len(verts), workers, sc.transformBody)

	// Phase 1b — parallel setup into slot-indexed arrays; an empty
	// record carries an empty-bbox sentinel (x1 < x0). Each setup chunk
	// has its own overflow, found again from a triangle's index as
	// over[setup.Index(i)].
	sc.tris = grow(&sc.tris, n)
	sc.setup = par.Chunks(n, workers)
	sc.over = grow(&sc.over, sc.setup.Count)
	par.ForChunks(n, workers, sc.setupBody)

	// Phase 2 — rasterize row bands concurrently, one owner per band.
	sc.band = par.Chunks(r.FB.H, workers)
	sc.frags = grow(&sc.frags, sc.band.Count)
	sc.slots = grow(&sc.slots, sc.band.Count)
	par.ForChunks(r.FB.H, workers, sc.bandBody)
	for _, f := range sc.frags {
		r.FragmentCount += f
	}
	sc.r, sc.verts, sc.prims = nil, nil, nil
}

func (sc *flushScratch) transformChunk(lo, hi int) {
	for i := lo; i < hi; i++ {
		sc.r.transformVertex(sc.verts[i].Pos, &sc.tv[i])
	}
}

func (sc *flushScratch) setupChunk(lo, hi int) {
	ov := &sc.over[sc.setup.Index(lo)]
	ov.reset()
	src := triSource{verts: sc.verts, tv: sc.tv, over: ov}
	for i := lo; i < hi; i++ {
		tp := sc.prims[i]
		sc.r.setupClipped(&src, tp.i0, tp.i1, tp.i2, &sc.tris[i])
	}
}

func (sc *flushScratch) bandChunk(lo, hi int) {
	r := sc.r
	band := sc.band.Index(lo)
	e := emitCtx{r: r, y0: lo, x1: r.FB.W - 1, y1: hi - 1, frag: &sc.slots[band]}
	src := triSource{verts: sc.verts, tv: sc.tv}
	for i := range sc.tris {
		s := &sc.tris[i]
		if s.x1 < s.x0 {
			continue
		}
		src.over = &sc.over[sc.setup.Index(i)]
		if s.y0 <= e.y1 && s.y1 >= e.y0 {
			rasterTriangle(s, &src, &e)
		}
		if s.next >= 0 {
			if s2 := &src.over.tris[s.next]; s2.y0 <= e.y1 && s2.y1 >= e.y0 {
				rasterTriangle(s2, &src, &e)
			}
		}
	}
	sc.frags[band] = e.frags
}

// getBatch borrows a scratch from the free list and returns the batch
// inside it, bound to r; putBatch returns both.
// DrawTriangleStripBatchFunc uses the pair so that a flush per frame
// reuses its submission buffers as well as its working storage.
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

// DrawTriangleStripBatchFunc draws len(counts) strips, in order, whose
// vertices the caller generates in place: strip k has counts[k]
// vertices and fill(k, dst) must write every one of them to dst, which
// is the batch's own vertex storage (its previous contents are
// unspecified). fill is called once per strip, concurrently on
// par.Workers() goroutines, so it must only read shared state. This is
// how a caller that computes its vertices (sos.RenderLines) avoids a
// slice per strip and a copy of each into the batch.
func (r *Rasterizer) DrawTriangleStripBatchFunc(counts []int, fill func(strip int, dst []Vertex)) {
	b := getBatch(r)
	sc := b.sc
	total := 0
	for _, c := range counts {
		b.stripTriangles(total, c)
		total += c
	}
	b.verts = grow(&b.verts, total)
	sc.bind()
	sc.counts, sc.fill = counts, fill
	par.ForChunks(len(counts), 0, sc.fillBody)
	sc.counts, sc.fill = nil, nil
	b.Flush()
	putBatch(b)
}

func (sc *flushScratch) fillChunk(lo, hi int) {
	off := 0
	for _, c := range sc.counts[:lo] {
		off += c
	}
	verts := sc.batch.verts
	for k := lo; k < hi; k++ {
		c := sc.counts[k]
		sc.fill(k, verts[off:off+c:off+c])
		off += c
	}
}
