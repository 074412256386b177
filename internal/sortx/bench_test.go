package sortx

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// BenchmarkSortx compares the parallel radix sort against the stdlib
// stable sort at the sizes the pipeline actually sorts: a frame's
// per-line depth sort of about 1000 lines (the N=1000 and N=2048 rows,
// depth keys, the fallback's side of FallbackThreshold) and Morton
// sorts at 1e4-1e6+. The radix rows call radix directly, so they time
// it below the threshold too; the rows are the data behind
// FallbackThreshold's comment.
func BenchmarkSortx(b *testing.B) {
	for _, n := range []int{1000, 2048, 10_000, 100_000, 1_000_000} {
		rng := rand.New(rand.NewSource(int64(n)))
		master := make([]KV, n)
		for i := range master {
			if n <= FallbackThreshold {
				// Far-to-near depth keys, as sos sorts its lines.
				master[i] = KV{K: Float64KeyDesc(4 * rng.NormFloat64()), V: int64(i)}
			} else {
				// 24-bit Morton-like keys: the dominant workload.
				master[i] = KV{K: uint64(rng.Intn(1 << 24)), V: int64(i)}
			}
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
				radix(work, scratch, 1)
			}
		})
		b.Run(fmt.Sprintf("N=%d/radix/workers=%d", n, runtime.NumCPU()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(work, master)
				radix(work, scratch, runtime.NumCPU())
			}
		})
	}
}
