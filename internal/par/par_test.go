package par

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// TestMain checks that the package's tests leave no goroutine behind:
// the team is already running when it starts, so everything counted
// after the tests beyond the count at entry leaked.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			fmt.Fprintf(os.Stderr, "goroutines leaked: %d at entry, %d after the tests\n", before, after)
			code = 1
		}
	}
	os.Exit(code)
}

func TestForVisitsEveryIndexOnce(t *testing.T) {
	const n = 10000
	var hits [n]int32
	For(n, 4, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	For(0, 4, func(int) { called = true })
	For(-5, 4, func(int) { called = true })
	if called {
		t.Error("body called for empty range")
	}
}

func TestForSingleWorkerIsSequential(t *testing.T) {
	var order []int
	For(100, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if i != v {
			t.Fatalf("single worker out of order at %d: %d", i, v)
		}
	}
}

func TestForChunksCoverRange(t *testing.T) {
	f := func(n16 uint16, w8 uint8) bool {
		n := int(n16 % 2000)
		w := int(w8%8) + 1
		var mu sync.Mutex
		seen := make(map[int]int)
		ForChunks(n, w, func(lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMapReduceSum(t *testing.T) {
	const n = 100000
	got := MapReduce(n, 4,
		func() int64 { return 0 },
		func(part int64, lo, hi int) int64 {
			for i := lo; i < hi; i++ {
				part += int64(i)
			}
			return part
		},
		func(a, b int64) int64 { return a + b },
	)
	want := int64(n) * (n - 1) / 2
	if got != want {
		t.Errorf("MapReduce sum = %d, want %d", got, want)
	}
}

func TestMapReduceEmpty(t *testing.T) {
	got := MapReduce(0, 4,
		func() int { return 7 },
		func(part int, lo, hi int) int { return part + hi - lo },
		func(a, b int) int { return a + b },
	)
	if got != 7 {
		t.Errorf("MapReduce on empty range = %d, want the fresh partial 7", got)
	}
}

// TestMapReduceEveryNAndW: at every n and worker count the fold equals
// the serial one, for a partial whose zero value is not the identity
// (a minimum, by value) and for one that cannot be used at all unless
// newPartial made it (a pointer). Ceil-sized chunks leave trailing
// workers without a chunk — n = 4 at 3 workers, n = 8…12 at 7 — and a
// slot nobody filled must not reach merge.
func TestMapReduceEveryNAndW(t *testing.T) {
	val := func(i int) int { return (i*37+11)%101 + 1 } // never 0, so a merged zero int shows as the minimum
	for n := 0; n <= 40; n++ {
		wantMin, wantSum := 1<<30, 0
		for i := 0; i < n; i++ {
			wantMin, wantSum = min(wantMin, val(i)), wantSum+val(i)
		}
		for w := 1; w <= 9; w++ {
			gotMin := MapReduce(n, w,
				func() int { return 1 << 30 },
				func(part, lo, hi int) int {
					for i := lo; i < hi; i++ {
						part = min(part, val(i))
					}
					return part
				},
				func(a, b int) int { return min(a, b) })
			if gotMin != wantMin {
				t.Errorf("n=%d workers=%d: minimum %d, want %d", n, w, gotMin, wantMin)
			}
			gotSum := MapReduce(n, w,
				func() *int { return new(int) },
				func(part *int, lo, hi int) *int {
					for i := lo; i < hi; i++ {
						*part += val(i)
					}
					return part
				},
				func(a, b *int) *int { *a += *b; return a })
			if *gotSum != wantSum {
				t.Errorf("n=%d workers=%d: sum %d, want %d", n, w, *gotSum, wantSum)
			}
		}
	}
}

// TestSlabsPartition pins the one chunk plan, the slab decomposition
// every pass uses: at every n and worker count its chunks are
// non-empty, disjoint, in order and cover [0,n), there are no more of
// them than workers, Index finds each one from any index inside it, and
// ForChunks runs exactly those chunks.
func TestSlabsPartition(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for w := 1; w <= 9; w++ {
			p := Chunks(n, w)
			if p.Count > w || (n > 0) != (p.Count > 0) {
				t.Fatalf("n=%d workers=%d: %d chunks", n, w, p.Count)
			}
			next := 0
			for c := 0; c < p.Count; c++ {
				lo, hi := p.Bounds(c)
				if lo != next || hi <= lo || hi > n {
					t.Fatalf("n=%d workers=%d: chunk %d is [%d,%d) after %d", n, w, c, lo, hi, next)
				}
				for i := lo; i < hi; i++ {
					if p.Index(i) != c {
						t.Fatalf("n=%d workers=%d: Index(%d) = %d, want %d", n, w, i, p.Index(i), c)
					}
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d workers=%d: chunks cover [0,%d)", n, w, next)
			}
			var mu sync.Mutex
			ran := make(map[[2]int]bool)
			ForChunks(n, w, func(lo, hi int) {
				mu.Lock()
				ran[[2]int{lo, hi}] = true
				mu.Unlock()
			})
			for c := 0; c < p.Count; c++ {
				lo, hi := p.Bounds(c)
				delete(ran, [2]int{lo, hi})
			}
			if len(ran) != 0 {
				t.Fatalf("n=%d workers=%d: ForChunks ran chunks outside the plan: %v", n, w, ran)
			}
		}
	}
}

// TestSlabsDegenerate: no layers give no chunks and no body call, and
// more workers than layers give one chunk per layer.
func TestSlabsDegenerate(t *testing.T) {
	for _, n := range []int{0, -3} {
		if p := Chunks(n, 4); p.Count != 0 {
			t.Errorf("Chunks(%d, 4) has %d chunks, want 0", n, p.Count)
		}
		ForChunks(n, 4, func(lo, hi int) { t.Errorf("ForChunks(%d) ran [%d,%d)", n, lo, hi) })
	}
	p := Chunks(2, 16)
	total := 0
	for c := 0; c < p.Count; c++ {
		lo, hi := p.Bounds(c)
		total += hi - lo
	}
	if p.Count != 2 || total != 2 {
		t.Errorf("Chunks(2, 16): %d chunks covering %d layers, want 2 and 2", p.Count, total)
	}
}

// TestForChunksAllocatesNothing: with a body bound once, a call hands
// its chunks to the team and joins them without a single allocation.
func TestForChunksAllocatesNothing(t *testing.T) {
	data := make([]int64, 4096)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			data[i]++
		}
	}
	for _, w := range []int{1, 2, 8} {
		if got := testing.AllocsPerRun(200, func() { ForChunks(len(data), w, body) }); got != 0 {
			t.Errorf("workers=%d: %v allocations per call, want 0", w, got)
		}
	}
}

// nestedSum sums val over [lo,hi) through depth levels of ForChunks,
// with two MapReduce halves at the bottom.
func nestedSum(depth, lo, hi, workers int, val func(int) int64) int64 {
	if depth == 0 {
		half := func(lo, hi int) int64 {
			return MapReduce(hi-lo, workers,
				func() int64 { return 0 },
				func(part int64, clo, chi int) int64 {
					for i := lo + clo; i < lo+chi; i++ {
						part += val(i)
					}
					return part
				},
				func(a, b int64) int64 { return a + b })
		}
		mid := (lo + hi) / 2
		return half(lo, mid) + half(mid, hi)
	}
	p := Chunks(hi-lo, workers)
	parts := make([]int64, p.Count)
	ForChunks(hi-lo, workers, func(clo, chi int) {
		parts[p.Index(clo)] = nestedSum(depth-1, lo+clo, lo+chi, workers, val)
	})
	var s int64
	for _, v := range parts {
		s += v
	}
	return s
}

// TestTeamNestedNeverDeadlocks: eight callers at once, each nesting
// ForChunks four deep with MapReduce inside, at several GOMAXPROCS
// values: every call returns, with the serial sum. The team
// is far smaller than the chunks in flight, so this holds only because
// a chunk that finds no idle worker runs on its caller.
func TestTeamNestedNeverDeadlocks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	val := func(i int) int64 { return int64(i*31%97) - 40 }
	const n = 3 * 3 * 3 * 3 * 50
	var want int64
	for i := 0; i < n; i++ {
		want += val(i)
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got := make([]int64, 8)
		done := make(chan struct{})
		go func() {
			defer close(done)
			var wg sync.WaitGroup
			for c := range got {
				c := c
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[c] = nestedSum(4, 0, n, 3, val)
				}()
			}
			wg.Wait()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("GOMAXPROCS=%d: nested calls still running after 10 s", procs)
		}
		for c, g := range got {
			if g != want {
				t.Errorf("GOMAXPROCS=%d caller %d: sum %d, want %d", procs, c, g, want)
			}
		}
	}
}

// TestForChunksPanicReachesCaller: a panic in any one chunk reaches the
// caller with its value, whichever goroutine ran the chunk, and only
// after every other chunk of the call has finished, and the team keeps
// working afterwards.
func TestForChunksPanicReachesCaller(t *testing.T) {
	catch := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	const n = 1000
	for _, w := range []int{1, 2, 8} {
		p := Chunks(n, w)
		for _, bad := range []int{0, p.Count - 1} {
			var finished atomic.Int64
			got := catch(func() {
				ForChunks(n, w, func(lo, hi int) {
					if p.Index(lo) == bad {
						panic("chunk failed")
					}
					time.Sleep(time.Millisecond)
					finished.Add(1)
				})
			})
			if got != "chunk failed" {
				t.Errorf("workers=%d, chunk %d panics: caller recovered %v", w, bad, got)
			}
			if f := finished.Load(); f != int64(p.Count-1) {
				t.Errorf("workers=%d, chunk %d panics: %d of %d other chunks had finished", w, bad, f, p.Count-1)
			}
		}
	}
	var sum atomic.Int64
	For(n, 8, func(i int) { sum.Add(int64(i)) })
	if sum.Load() != n*(n-1)/2 {
		t.Errorf("after the panics, For summed %d", sum.Load())
	}
}

func TestWorkersPositive(t *testing.T) {
	if Workers() < 1 {
		t.Errorf("Workers() = %d", Workers())
	}
}
