// Package sortx provides the parallel keyed-sort primitive shared by
// the pipeline's hot sorting paths: the Morton-code sort inside the
// octree partitioner, the back-to-front fragment sort of the OIT
// resolver, and the per-line depth sort of the self-orienting-surface
// renderer. One optimized routine — a stable LSD radix sort over packed
// (uint64 key, int64 payload) pairs — serves all three, so the
// partitioner's terascale sort and the renderers' per-frame sorts share
// the same code and the same benchmarks.
//
// The sort is stable: pairs with equal keys keep their input order,
// which is what makes the octree build deterministic at every worker
// count and keeps equal-depth fragments compositing in submission
// order.
package sortx

import (
	"math"
	"sort"

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

// FallbackThreshold is the length below which Pairs delegates to the
// stdlib: a radix pass touches every element once per key byte plus a
// histogram pass, so for small inputs the O(n log n) comparison sort's
// constant factor wins. The crossover is measured by BenchmarkSortx.
const FallbackThreshold = 2048

const (
	radixBits = 8
	buckets   = 1 << radixBits
	digits    = 64 / radixBits
)

// Pairs sorts p by ascending key, stably, across the given number of
// workers (0 = auto). It allocates a same-size scratch buffer; callers
// sorting repeatedly should use PairsScratch to recycle one.
func Pairs(p []KV, workers int) {
	if len(p) <= FallbackThreshold {
		fallback(p)
		return
	}
	radix(p, make([]KV, len(p)), workers)
}

// PairsScratch is Pairs with a caller-provided scratch buffer of at
// least len(p) elements (a shorter one is replaced by a fresh
// allocation, so the call is always correct).
func PairsScratch(p, scratch []KV, workers int) {
	if len(p) <= FallbackThreshold {
		fallback(p)
		return
	}
	if len(scratch) < len(p) {
		scratch = make([]KV, len(p))
	}
	radix(p, scratch[:len(p)], workers)
}

func fallback(p []KV) {
	sort.SliceStable(p, func(i, j int) bool { return p[i].K < p[j].K })
}

// radix runs a stable LSD radix sort over p using scratch as the
// ping-pong buffer. Each needed key byte costs one parallel histogram
// pass and one parallel stable scatter; bytes on which every key
// agrees (detected with a single OR/AND scan) are skipped entirely, so
// 24-bit Morton codes or 32-bit float keys pay only for the bytes that
// actually vary.
func radix(p, scratch []KV, workers int) {
	n := len(p)
	// One scan bounds the key range: a byte position where OR and AND
	// agree is constant across all keys and needs no pass.
	type orAnd struct{ or, and uint64 }
	span := par.MapReduce(n, workers,
		func() orAnd { return orAnd{0, ^uint64(0)} },
		func(a orAnd, lo, hi int) orAnd {
			for i := lo; i < hi; i++ {
				k := p[i].K
				a.or |= k
				a.and &= k
			}
			return a
		},
		func(a, b orAnd) orAnd { return orAnd{a.or | b.or, a.and & b.and} },
	)

	src, dst := p, scratch
	for d := 0; d < digits; d++ {
		shift := uint(d * radixBits)
		if byte(span.or>>shift) == byte(span.and>>shift) {
			continue
		}
		scatterDigit(src, dst, shift, workers)
		src, dst = dst, src
	}
	if &src[0] != &p[0] {
		copy(p, src)
	}
}

// scatterDigit stably reorders src into dst by the key byte at shift:
// per-worker histograms over contiguous chunks, an exclusive scan that
// is bucket-major then worker-major (so equal keys keep chunk order,
// and chunks keep input order — stability), then a parallel scatter in
// which each worker writes its chunk to precomputed disjoint slots.
func scatterDigit(src, dst []KV, shift uint, workers int) {
	n := len(src)
	plan := par.Chunks(n, workers)
	hist := make([][buckets]int64, plan.Count)
	par.ForChunks(n, workers, func(lo, hi int) {
		h := &hist[plan.Index(lo)]
		for i := lo; i < hi; i++ {
			h[byte(src[i].K>>shift)]++
		}
	})
	var total int64
	for b := 0; b < buckets; b++ {
		for w := range hist {
			c := hist[w][b]
			hist[w][b] = total
			total += c
		}
	}
	par.ForChunks(n, workers, func(lo, hi int) {
		h := &hist[plan.Index(lo)]
		for i := lo; i < hi; i++ {
			b := byte(src[i].K >> shift)
			dst[h[b]] = src[i]
			h[b]++
		}
	})
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

// Float32Key is Float64Key for float32 keys. The mapped key occupies
// the low 32 bits, so the radix sort skips the four constant high
// bytes automatically.
func Float32Key(f float32) uint64 {
	b := math.Float32bits(f)
	if b>>31 != 0 {
		b = ^b
	} else {
		b |= 1 << 31
	}
	return uint64(b)
}

// Float32KeyDesc reverses Float32Key's order within the low 32 bits
// (the high bytes stay zero and cost no radix passes).
func Float32KeyDesc(f float32) uint64 { return Float32Key(f) ^ 0xffffffff }
