// Package sortx provides the parallel keyed sort of the octree
// partitioner: a stable LSD radix sort over packed (uint64 key, int64
// payload) pairs, run by a Sorter that keeps its scratch from call to
// call, so that a partitioner rebuilding its tree every frame sorts
// without allocating.
//
// The sort has one in-tree user, octree.Builder, which sorts the Morton
// codes and the leaf densities on one Sorter; the SOS renderer uses only
// KV and the key maps, and sorts its thousand line depths with the
// standard library. The benchmark's sortx.pairs probe times Pairs on a
// frame's float keys. The radix stays in a package of its own rather
// than inside the octree because the benchmark module pins Pairs, KV
// and Float64Key by name.
//
// The sort is stable: pairs with equal keys keep their input order,
// which is what makes the octree build the same at every core count.
package sortx

import (
	"math"

	"repro/internal/par"
)

// KV is one packed sort element: a 64-bit key and a 64-bit payload
// (typically an index into a companion array). Packing key and payload
// into one 16-byte element keeps the scatter passes sequential in
// memory — the indirect-comparator pattern (sort indices, compare
// keys[order[i]]) this package replaces costs a dependent load per
// comparison.
type KV struct {
	K uint64
	V int64
}

const (
	radixBits = 8
	buckets   = 1 << radixBits
	digits    = 64 / radixBits
)

// Pairs sorts p by ascending key, stably, across the given number of
// workers (0 = par.Workers()) on a fresh Sorter: it allocates the
// scratch a kept Sorter reuses.
func Pairs(p []KV, workers int) {
	if workers <= 0 {
		workers = par.Workers()
	}
	new(Sorter).sort(p, workers)
}

// Sorter is a stable parallel LSD radix sort that keeps, from call to
// call, its ping-pong buffer, its per-chunk histograms and key-span
// partials (sized by the chunk plan and re-sized when GOMAXPROCS grew),
// and its three chunk bodies, bound once. A warm Sort allocates
// nothing. The zero value is ready; a Sorter serves one sort at a time,
// keeps no reference to a slice it sorted, and must not be copied after
// its first sort, since its bodies are bound to it.
//
// Each key byte that varies costs one parallel histogram pass and one
// parallel stable scatter. Bytes on which every key agrees, found by
// one OR/AND scan, are skipped, so 24-bit Morton codes pay for three
// passes.
type Sorter struct {
	buf   []KV
	hist  [][buckets]int64 // per chunk; after the scan, each bucket's next slot
	spans []span           // per chunk: the OR and AND of its keys

	// One call's state, read by the bodies.
	src, dst []KV
	shift    uint
	plan     par.Plan
	workers  int

	spanBody, countBody, scatterBody func(lo, hi int)
}

type span struct{ or, and uint64 }

// Sort sorts p by ascending key, stably, at par.Workers() workers.
func (s *Sorter) Sort(p []KV) { s.sort(p, par.Workers()) }

func (s *Sorter) sort(p []KV, workers int) {
	n := len(p)
	if n < 2 {
		return
	}
	s.prepare(n, workers)
	keys := s.keySpan(p)
	src, dst := p, s.buf[:n]
	for d := 0; d < digits; d++ {
		shift := uint(d * radixBits)
		if byte(keys.or>>shift) == byte(keys.and>>shift) {
			continue
		}
		s.src, s.dst, s.shift = src, dst, shift
		clear(s.hist[:s.plan.Count])
		s.count()
		s.scatter()
		src, dst = dst, src
	}
	if &src[0] != &p[0] {
		copy(p, src)
	}
	s.src, s.dst = nil, nil
}

// prepare fixes the call's chunk plan and sizes the scratch for it.
func (s *Sorter) prepare(n, workers int) {
	if s.spanBody == nil {
		s.spanBody, s.countBody, s.scatterBody = s.spanChunk, s.countChunk, s.scatterChunk
	}
	s.workers, s.plan = workers, par.Chunks(n, workers)
	if len(s.hist) < s.plan.Count {
		s.hist = make([][buckets]int64, s.plan.Count)
		s.spans = make([]span, s.plan.Count)
	}
	if cap(s.buf) < n {
		s.buf = make([]KV, n)
	}
}

// keySpan returns the OR and the AND of every key of p: a byte position
// where they agree is constant across all keys and needs no pass.
func (s *Sorter) keySpan(p []KV) span {
	s.src = p
	par.ForChunks(len(p), s.workers, s.spanBody)
	all := span{0, ^uint64(0)}
	for _, c := range s.spans[:s.plan.Count] {
		all.or |= c.or
		all.and &= c.and
	}
	return all
}

func (s *Sorter) spanChunk(lo, hi int) {
	c := span{0, ^uint64(0)}
	for _, kv := range s.src[lo:hi] {
		c.or |= kv.K
		c.and &= kv.K
	}
	s.spans[s.plan.Index(lo)] = c
}

// count takes each chunk's histogram of the key byte at s.shift, then
// turns the histograms into slots by an exclusive scan that is
// bucket-major then chunk-major: equal bytes keep chunk order, and
// chunks keep input order — the scatter is stable.
func (s *Sorter) count() {
	par.ForChunks(len(s.src), s.workers, s.countBody)
	hist := s.hist[:s.plan.Count]
	var total int64
	for b := 0; b < buckets; b++ {
		for c := range hist {
			n := hist[c][b]
			hist[c][b] = total
			total += n
		}
	}
}

func (s *Sorter) countChunk(lo, hi int) {
	h, shift := &s.hist[s.plan.Index(lo)], s.shift
	for _, kv := range s.src[lo:hi] {
		h[byte(kv.K>>shift)]++
	}
}

// scatter writes each chunk of s.src to its slots in s.dst; the
// chunks' slots are disjoint.
func (s *Sorter) scatter() { par.ForChunks(len(s.src), s.workers, s.scatterBody) }

func (s *Sorter) scatterChunk(lo, hi int) {
	h, shift, dst := &s.hist[s.plan.Index(lo)], s.shift, s.dst
	for _, kv := range s.src[lo:hi] {
		b := byte(kv.K >> shift)
		dst[h[b]] = kv
		h[b]++
	}
}

// Float64Key maps a float64 to a uint64 whose unsigned order matches
// the float order: -Inf < negatives < -0 < +0 < positives < +Inf.
// (NaNs land at the extremes depending on sign bit; callers sort
// non-NaN data.) This is the standard sign-flip trick: negative floats
// have inverted magnitude order, so their bits are complemented;
// non-negative floats just get the sign bit set.
func Float64Key(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// Float64KeyDesc is Float64Key with the order reversed, for
// back-to-front (descending) sorts.
func Float64KeyDesc(f float64) uint64 { return ^Float64Key(f) }
