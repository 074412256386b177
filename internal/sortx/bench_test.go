package sortx

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// BenchmarkSortx compares the parallel radix sort against the stdlib
// stable sort at the sizes the pipeline actually sorts (a frame's
// per-line depth sort sits below FallbackThreshold; a strip frame's
// tile pairs run to 1e4-1e5 and Morton sorts to 1e5-1e6+), which is
// the data behind the FallbackThreshold crossover choice.
func BenchmarkSortx(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		rng := rand.New(rand.NewSource(int64(n)))
		master := make([]KV, n)
		for i := range master {
			// 24-bit Morton-like keys: the dominant workload.
			master[i] = KV{K: uint64(rng.Intn(1 << 24)), V: int64(i)}
		}
		work := make([]KV, n)
		scratch := make([]KV, n)

		b.Run(fmt.Sprintf("N=%d/stdlib", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(work, master)
				sort.SliceStable(work, func(a, c int) bool { return work[a].K < work[c].K })
			}
		})
		b.Run(fmt.Sprintf("N=%d/radix/workers=1", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(work, master)
				PairsScratch(work, scratch, 1)
			}
		})
		b.Run(fmt.Sprintf("N=%d/radix/workers=%d", n, runtime.NumCPU()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(work, master)
				PairsScratch(work, scratch, runtime.NumCPU())
			}
		})
	}
}
