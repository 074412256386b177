package render

import (
	"repro/internal/hybrid"
	"repro/internal/par"
	"repro/internal/sortx"
)

// fragmentSink intercepts fragments before the framebuffer; returning
// true consumes the fragment. shard is the tile-run index during a
// batched draw — every pixel belongs to exactly one shard, so per-shard
// state needs no synchronization — or -1 from the immediate-mode path.
// beginShards/endShards bracket each batched flush so implementations
// can allocate and fold contention-free per-tile state.
type fragmentSink interface {
	sinkFragment(shard, x, y int, depth float32, c hybrid.RGBA) bool
	beginShards(n int)
	endShards()
}

// OITBuffer implements order-independent transparency: fragments are
// collected per pixel with their depths and composited back-to-front
// at resolve time, regardless of submission order. This is the
// software equivalent of the "order-independent transparency technique
// supported on the nVidia GeForce 3" that §3.3.3 proposes coupling
// with self-orienting surfaces (noting it "would require disabling
// bump mapping" — the caller uses a plain Phong shader).
//
// Usage: attach with Rasterizer.AttachOIT, draw transparent geometry
// in any order — immediate or batched — then Resolve to composite into
// the framebuffer. During a batched draw, fragments arrive from
// concurrent tile workers; the per-pixel lists are safe because each
// pixel is owned by one tile, and the fragment tally is kept in
// per-tile buckets folded together after the flush.
type OITBuffer struct {
	W, H  int
	lists [][]oitFragment
	// FragmentCount tallies stored fragments (memory cost metric: this
	// is why the hardware variant was bounded to a few layers).
	FragmentCount int64
	// Workers bounds Resolve's parallelism (0 = auto). Pixels are
	// independent — sorting and compositing touch only that pixel's
	// fragment list and framebuffer slot — so the resolve fans out
	// without changing the image.
	Workers int
}

type oitFragment struct {
	depth float32
	color hybrid.RGBA
}

// NewOITBuffer allocates per-pixel fragment lists for a w x h frame.
func NewOITBuffer(w, h int) *OITBuffer {
	return &OITBuffer{W: w, H: h, lists: make([][]oitFragment, w*h)}
}

// insert appends a fragment to its pixel list without touching the
// shared counter. Callers either own the pixel's tile (batched path)
// or account through Add (serial path). Reports whether the fragment
// was stored.
func (o *OITBuffer) insert(x, y int, depth float32, c hybrid.RGBA) bool {
	if x < 0 || x >= o.W || y < 0 || y >= o.H || c.A <= 0 {
		return false
	}
	i := y*o.W + x
	o.lists[i] = append(o.lists[i], oitFragment{depth, c})
	return true
}

// Add stores a fragment for pixel (x, y).
func (o *OITBuffer) Add(x, y int, depth float32, c hybrid.RGBA) {
	if o.insert(x, y, depth, c) {
		o.FragmentCount++
	}
}

// Resolve sorts each pixel's fragments far-to-near and composites them
// over the framebuffer with straight alpha. Fragments behind the
// framebuffer's opaque depth are discarded (the opaque scene occludes
// them). The buffer is cleared afterwards. The per-pixel sort runs on
// sortx (stable, so equal-depth fragments composite in submission
// order) with per-worker scratch reused across pixels.
func (o *OITBuffer) Resolve(fb *Framebuffer) {
	par.ForChunks(len(o.lists), o.Workers, func(lo, hi int) {
		var kv, scratch []sortx.KV
		for i := lo; i < hi; i++ {
			frags := o.lists[i]
			if len(frags) == 0 {
				continue
			}
			x, y := i%o.W, i/o.W
			zOpaque := fb.Depth[i]
			if cap(kv) < len(frags) {
				kv = make([]sortx.KV, len(frags))
				scratch = make([]sortx.KV, len(frags))
			}
			kv = kv[:len(frags)]
			for j, f := range frags {
				kv[j] = sortx.KV{K: sortx.Float32KeyDesc(f.depth), V: int64(j)}
			}
			sortx.PairsScratch(kv, scratch[:len(frags)], 1)
			for _, e := range kv {
				f := frags[e.V]
				if f.depth > zOpaque {
					continue // behind opaque geometry
				}
				fb.writeFragment(x, y, f.depth, f.color, BlendAlpha, false, false)
			}
			o.lists[i] = nil
		}
	})
}

// oitSink routes rasterizer fragments into an OITBuffer, depth-testing
// against the opaque scene at capture time and deferring the blend to
// Resolve. The batched path counts stored fragments in per-tile
// buckets (one per shard) folded into FragmentCount at endShards, so
// concurrent tile workers never contend on the tally.
type oitSink struct {
	r      *Rasterizer
	o      *OITBuffer
	counts []int64
}

func (s *oitSink) sinkFragment(shard, x, y int, depth float32, c hybrid.RGBA) bool {
	// Depth-test against opaque geometry now; defer blending. The
	// emitter has already clipped to the framebuffer rect.
	if s.r.DepthTest && depth > s.r.FB.Depth[y*s.r.FB.W+x] {
		return true
	}
	if shard >= 0 {
		if s.o.insert(x, y, depth, c) {
			s.counts[shard]++
		}
		return true
	}
	s.o.Add(x, y, depth, c)
	return true
}

func (s *oitSink) beginShards(n int) { s.counts = make([]int64, n) }

func (s *oitSink) endShards() {
	var total int64
	for _, c := range s.counts {
		total += c
	}
	s.o.FragmentCount += total
	s.counts = nil
}

// AttachOIT redirects the rasterizer's blended fragments into the OIT
// buffer instead of the framebuffer: it returns a restore function.
// While attached, the rasterizer must use BlendAlpha mode; opaque
// passes should be drawn (and depth-written) before attaching so
// Resolve can occlusion-test against them. Batched draws work while
// attached: capture parallelizes over tiles with per-tile fragment
// buckets.
func (r *Rasterizer) AttachOIT(o *OITBuffer) (restore func()) {
	prev := r.fragmentSink
	r.fragmentSink = &oitSink{r: r, o: o}
	return func() { r.fragmentSink = prev }
}
