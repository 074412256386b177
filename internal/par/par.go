// Package par provides the goroutine-parallel building blocks used by
// every heavy stage of the pipeline: octree construction, density
// splatting, FDTD slab updates, ray casting, and field-line seeding.
//
// The paper's preprocessing ran on an IBM SP with thousands of CPUs and
// on SLAC's 32-node cluster; here the same decompositions (range
// chunking, slab decomposition, per-worker reduction) are expressed with
// goroutines so the code retains the parallel structure at any core
// count, including one.
package par

import (
	"runtime"
	"sync"
)

// Workers returns the default worker count: GOMAXPROCS, but never less
// than 1.
func Workers() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// For runs body(i) for every i in [0,n) across the given number of
// workers (0 means Workers()). Iterations are distributed in contiguous
// chunks so memory access within a worker stays sequential, which is
// the access pattern the pipeline's large array passes need.
func For(n, workers int, body func(i int)) {
	ForChunks(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForChunks splits [0,n) into one contiguous chunk per worker and calls
// body(lo, hi) concurrently for each chunk. It blocks until every chunk
// has been processed. n <= 0 is a no-op.
func ForChunks(n, workers int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MapReduce runs mapBody on contiguous chunks of [0,n), each worker
// accumulating into its own partial produced by newPartial, then folds
// the partials together with merge on the calling goroutine. It is the
// pattern used for parallel histogramming and min/max scans over
// hundred-million-particle arrays.
func MapReduce[T any](n, workers int, newPartial func() T, mapBody func(part T, lo, hi int) T, merge func(a, b T) T) T {
	if workers <= 0 {
		workers = Workers()
	}
	if n <= 0 {
		return newPartial()
	}
	if workers > n {
		workers = n
	}
	// Ceil-sized chunks can cover [0,n) before the last worker's turn
	// (n = 4 at 3 workers is two chunks of 2): a slot per chunk that
	// runs, so that no zero T — which need not be newPartial() — is merged.
	chunk := (n + workers - 1) / workers
	partials := make([]T, (n+chunk-1)/chunk)
	ForChunks(n, workers, func(lo, hi int) {
		partials[lo/chunk] = mapBody(newPartial(), lo, hi)
	})
	out := newPartial()
	for _, p := range partials {
		out = merge(out, p)
	}
	return out
}

// Pool is a worker pool executing submitted tasks. It is used where
// work items are irregular (per-octree-node extraction, per-seed
// field-line integration) and static chunking would imbalance. The
// worker count can be changed while tasks are in flight with Resize,
// which is how the pipeline balancer shifts capacity between stages.
// The zero value is not usable; construct with NewPool.
type Pool struct {
	tasks chan func()
	wg    sync.WaitGroup
	once  sync.Once
	wake  chan struct{}

	mu     sync.Mutex
	target int // desired worker count
	live   int // running worker goroutines
	closed bool
}

// NewPool starts a pool with the given number of workers (0 means
// Workers()) and a task queue of the given depth.
func NewPool(workers, queueDepth int) *Pool {
	if workers <= 0 {
		workers = Workers()
	}
	if queueDepth <= 0 {
		queueDepth = workers * 4
	}
	p := &Pool{
		tasks: make(chan func(), queueDepth),
		wake:  make(chan struct{}, 64),
	}
	p.mu.Lock()
	p.target = workers
	p.live = workers
	p.mu.Unlock()
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// worker runs tasks until the pool closes or a shrink retires it. The
// target check happens between tasks, never mid-task: a shrink takes
// effect at the next task boundary, so in the pipeline a rebalance can
// never tear a frame.
func (p *Pool) worker() {
	for {
		p.mu.Lock()
		if p.live > p.target {
			p.live--
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
		select {
		case task, ok := <-p.tasks:
			if !ok {
				return
			}
			task()
			p.wg.Done()
		case <-p.wake:
			// Re-check the target: Resize nudges idle workers here so a
			// shrink doesn't wait for the next task to land.
		}
	}
}

// Submit enqueues a task. It blocks when the queue is full, which
// provides natural backpressure against unbounded memory growth when a
// producer (e.g. the seeding loop) outruns the integrators.
func (p *Pool) Submit(task func()) {
	p.wg.Add(1)
	p.tasks <- task
}

// Close waits for outstanding tasks and shuts the workers down. The
// pool must not be used after Close.
func (p *Pool) Close() {
	p.wg.Wait()
	p.once.Do(func() {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		close(p.tasks)
	})
}

// Resize changes the worker count to n (minimum 1) while tasks are in
// flight, and returns the applied target. Growth spawns workers
// immediately; shrink retires workers at their next task boundary, so
// running tasks always complete. Resize never blocks on busy workers
// and is safe to call concurrently with Submit; after Close it is a
// no-op.
func (p *Pool) Resize(n int) int {
	if n < 1 {
		n = 1
	}
	p.mu.Lock()
	if p.closed {
		n = p.target
		p.mu.Unlock()
		return n
	}
	p.target = n
	spawn := n - p.live
	if spawn > 0 {
		p.live = n
	}
	retire := p.live - n
	p.mu.Unlock()
	for i := 0; i < spawn; i++ {
		go p.worker()
	}
	// Nudge idle workers parked in select so they observe the shrink
	// promptly; busy workers re-check after their current task anyway.
	for i := 0; i < retire; i++ {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
	return n
}

// Group is a bounded fork-join scope for recursive divide-and-conquer
// work (e.g. the octree's concurrent tree carve). Unlike Pool, whose
// Close waits for every submitted task and therefore deadlocks when tasks
// spawn and wait on subtasks, Group.Do waits only for the tasks of
// that call, and a task that cannot obtain a worker slot simply runs
// on the calling goroutine — recursion never blocks on the budget, it
// just degrades to serial execution.
type Group struct {
	slots chan struct{}
}

// NewGroup returns a group that runs at most `workers` tasks
// concurrently across all nested Do calls (0 means Workers()). The
// calling goroutine counts as one worker, so workers <= 1 yields fully
// serial execution.
func NewGroup(workers int) *Group {
	if workers <= 0 {
		workers = Workers()
	}
	return &Group{slots: make(chan struct{}, workers-1)}
}

// Do runs the given tasks and returns when all of them have completed.
// Tasks beyond the group's concurrency budget execute inline on the
// caller, preserving bounded parallelism under arbitrary recursion
// depth.
func (g *Group) Do(tasks ...func()) {
	if len(tasks) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, task := range tasks[1:] {
		select {
		case g.slots <- struct{}{}:
			wg.Add(1)
			go func(t func()) {
				defer wg.Done()
				defer func() { <-g.slots }()
				t()
			}(task)
		default:
			task()
		}
	}
	tasks[0]()
	wg.Wait()
}

// Slabs divides n layers (e.g. the z-extent of an FDTD grid) into
// contiguous slabs, one per worker, and returns the slab boundaries as
// a slice of [lo,hi) pairs. Domain-slab decomposition is how the
// paper's parallel field solver distributes the mesh; the same
// boundaries are reused across time steps so each worker touches the
// same memory every step.
func Slabs(n, workers int) [][2]int {
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	if n <= 0 {
		return nil
	}
	out := make([][2]int, 0, workers)
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}
