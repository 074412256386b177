package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

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

func TestPoolRunsAllTasks(t *testing.T) {
	p := NewPool(4, 8)
	defer p.Close()
	var count int64
	for i := 0; i < 1000; i++ {
		p.Submit(func() { atomic.AddInt64(&count, 1) })
	}
	p.Wait()
	if count != 1000 {
		t.Errorf("pool ran %d tasks, want 1000", count)
	}
}

func TestPoolReusableAfterWait(t *testing.T) {
	p := NewPool(2, 4)
	defer p.Close()
	var count int64
	p.Submit(func() { atomic.AddInt64(&count, 1) })
	p.Wait()
	p.Submit(func() { atomic.AddInt64(&count, 1) })
	p.Wait()
	if count != 2 {
		t.Errorf("count = %d after two rounds, want 2", count)
	}
}

func TestGroupRecursiveSum(t *testing.T) {
	// A recursive fork-join reduction must complete and be correct at
	// any budget, including the fully-inline workers=1 case.
	for _, w := range []int{1, 2, 8} {
		g := NewGroup(w)
		var sum func(lo, hi int) int64
		sum = func(lo, hi int) int64 {
			if hi-lo <= 64 {
				var s int64
				for i := lo; i < hi; i++ {
					s += int64(i)
				}
				return s
			}
			mid := (lo + hi) / 2
			var left, right int64
			g.Do(
				func() { left = sum(lo, mid) },
				func() { right = sum(mid, hi) },
			)
			return left + right
		}
		const n = 100000
		if got, want := sum(0, n), int64(n)*(n-1)/2; got != want {
			t.Errorf("workers=%d: recursive sum = %d, want %d", w, got, want)
		}
	}
}

func TestGroupBoundsConcurrency(t *testing.T) {
	const workers = 3
	g := NewGroup(workers)
	var cur, peak int64
	var tasks []func()
	for i := 0; i < 64; i++ {
		tasks = append(tasks, func() {
			c := atomic.AddInt64(&cur, 1)
			for {
				p := atomic.LoadInt64(&peak)
				if c <= p || atomic.CompareAndSwapInt64(&peak, p, c) {
					break
				}
			}
			atomic.AddInt64(&cur, -1)
		})
	}
	g.Do(tasks...)
	if peak > workers {
		t.Errorf("observed %d concurrent tasks, budget %d", peak, workers)
	}
}

func TestGroupEmptyDo(t *testing.T) {
	NewGroup(4).Do() // must not panic or hang
}

func TestSlabsPartition(t *testing.T) {
	slabs := Slabs(10, 3)
	if len(slabs) == 0 {
		t.Fatal("no slabs")
	}
	if slabs[0][0] != 0 {
		t.Errorf("first slab starts at %d", slabs[0][0])
	}
	if slabs[len(slabs)-1][1] != 10 {
		t.Errorf("last slab ends at %d", slabs[len(slabs)-1][1])
	}
	for i := 1; i < len(slabs); i++ {
		if slabs[i][0] != slabs[i-1][1] {
			t.Errorf("gap between slab %d and %d", i-1, i)
		}
	}
}

func TestSlabsDegenerate(t *testing.T) {
	if got := Slabs(0, 4); got != nil {
		t.Errorf("Slabs(0) = %v, want nil", got)
	}
	slabs := Slabs(2, 16)
	total := 0
	for _, s := range slabs {
		total += s[1] - s[0]
	}
	if total != 2 {
		t.Errorf("slabs cover %d layers, want 2", total)
	}
}

func TestWorkersPositive(t *testing.T) {
	if Workers() < 1 {
		t.Errorf("Workers() = %d", Workers())
	}
}

// TestPoolResizeUnderLoad pins the live-resize contract: a pool can
// grow and shrink while tasks are flowing, every submitted task still
// runs exactly once, and no worker goroutine outlives Close.
func TestPoolResizeUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(2, 4)
	var ran atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			p.Submit(func() {
				time.Sleep(50 * time.Microsecond)
				ran.Add(1)
			})
		}
	}()
	sizes := []int{8, 1, 6, 2, 12, 1, 4}
	for _, n := range sizes {
		if got := p.Resize(n); got != n {
			t.Fatalf("Resize(%d) applied %d", n, got)
		}
		if got := p.Size(); got != n {
			t.Fatalf("Size() = %d after Resize(%d)", got, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	<-done
	p.Close()
	if got := ran.Load(); got != 400 {
		t.Fatalf("%d of 400 tasks ran across resizes", got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestPoolResizeShrinkRetiresIdleWorkers proves a shrink takes effect
// without requiring new task traffic: idle workers are nudged awake
// and retire, observable as the goroutine count dropping.
func TestPoolResizeShrinkRetiresIdleWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(16, 16)
	defer p.Close()
	p.Resize(1)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		// base counts the test goroutine; allow the 1 surviving worker.
		if runtime.NumGoroutine() <= base+1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("idle workers did not retire: %d goroutines (base %d)", runtime.NumGoroutine(), base)
}

// TestPoolResizeClampsAndSurvivesClose pins the edges: Resize(0) means
// one worker, and Resize after Close is a harmless no-op.
func TestPoolResizeClampsAndSurvivesClose(t *testing.T) {
	p := NewPool(2, 2)
	if got := p.Resize(0); got != 1 {
		t.Errorf("Resize(0) applied %d, want 1", got)
	}
	p.Close()
	if got := p.Resize(8); got != 1 {
		t.Errorf("Resize after Close applied %d, want unchanged 1", got)
	}
}

// Wait blocks until every submitted task has completed. The pool
// remains usable afterwards.
func (p *Pool) Wait() { p.wg.Wait() }

// Size returns the pool's current target worker count.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.target
}
