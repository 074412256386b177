// Package par provides the goroutine-parallel building blocks used by
// every heavy stage of the pipeline: octree construction, density
// splatting, FDTD slab updates, ray casting, and field-line seeding.
//
// The paper's preprocessing ran on an IBM SP with thousands of CPUs and
// on SLAC's 32-node cluster; here the same decompositions (range
// chunking, slab decomposition, per-worker reduction) are expressed with
// goroutines so the code retains the parallel structure at any core
// count, including one.
//
// ForChunks, For, MapReduce and Group.Do run on one team of 2 ×
// GOMAXPROCS worker goroutines, started when the package loads and
// never exited; a call spawns no goroutine and, with a pre-bound body,
// allocates nothing. The team is parked on one unbuffered channel, so
// handing a chunk to it succeeds only when a worker is idle at that
// moment; a chunk that finds none runs inline on the caller, the way a
// Group task beyond its budget always has. A call therefore never
// blocks on the team, and nested calls — MapReduce inside ForChunks,
// the octree carve inside a pipeline stage, several stages at once —
// cannot deadlock. The caller hands out every chunk it can before it
// waits: running chunk 0 itself leaves the worker it has just woken
// queued behind it on the same processor. On a 2-core Xeon,
// BenchmarkAdvance/w2 (the FDTD step) took a median of 19.1 ms that
// way, 16.2 ms with a goroutine per chunk, and 15.7 ms with every
// chunk handed out. On the field_stream benchmark the team takes a
// frame from 569 allocations to 85: 444 of them were the goroutines
// and method values of 74 sweeps a frame.
//
// A panic in a chunk body is recovered on whichever goroutine ran the
// chunk and raised again on the caller, with the same value, once every
// chunk of the call has finished.
//
// Every chunk boundary comes from one plan, Chunks: a caller that keeps
// state per chunk sizes it by Plan.Count and finds it by Plan.Index.
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

// Plan is how ForChunks cuts [0,N) for a worker count: Count contiguous
// chunks of Size indices, in order, the last one possibly shorter.
// Count can be below the worker count: ceil-sized chunks may cover N
// early (N = 4 at 3 workers is two chunks of 2).
type Plan struct {
	N, Size, Count int
}

// Chunks returns the plan ForChunks(n, workers, …) runs (0 workers
// means Workers()). n <= 0 gives no chunks.
func Chunks(n, workers int) Plan {
	if n <= 0 {
		return Plan{}
	}
	if workers <= 0 {
		workers = Workers()
	}
	size := (n + workers - 1) / workers
	return Plan{N: n, Size: size, Count: (n + size - 1) / size}
}

// Bounds returns chunk c's half-open range.
func (p Plan) Bounds(c int) (lo, hi int) {
	lo = c * p.Size
	return lo, min(lo+p.Size, p.N)
}

// Index returns the chunk holding index i of [0,N): for a chunk's lo,
// that chunk's number.
func (p Plan) Index(i int) int { return i / p.Size }

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

// ForChunks calls body(lo, hi) for every chunk of Chunks(n, workers),
// concurrently on the team, and returns when every chunk has been
// processed. n <= 0 is a no-op; a plan of one chunk runs on the caller.
func ForChunks(n, workers int, body func(lo, hi int)) {
	p := Chunks(n, workers)
	if p.Count <= 1 {
		if n > 0 {
			body(0, n)
		}
		return
	}
	j := getJoin()
	for c := 0; c < p.Count; c++ {
		lo, hi := p.Bounds(c)
		j.start(job{chunk: body, lo: lo, hi: hi, join: j})
	}
	j.wait()
}

// MapReduce runs mapBody on contiguous chunks of [0,n), each worker
// accumulating into its own partial produced by newPartial, then folds
// the partials together with merge on the calling goroutine. It is the
// pattern used for parallel histogramming and min/max scans over
// hundred-million-particle arrays.
func MapReduce[T any](n, workers int, newPartial func() T, mapBody func(part T, lo, hi int) T, merge func(a, b T) T) T {
	if n <= 0 {
		return newPartial()
	}
	// One slot per chunk of the plan, so that no zero T — which need not
	// be newPartial() — is merged.
	p := Chunks(n, workers)
	partials := make([]T, p.Count)
	ForChunks(n, workers, func(lo, hi int) {
		partials[p.Index(lo)] = mapBody(newPartial(), lo, hi)
	})
	out := newPartial()
	for _, part := range partials {
		out = merge(out, part)
	}
	return out
}

// job is one chunk or one Group task handed to the team.
type job struct {
	chunk  func(lo, hi int)
	task   func()
	lo, hi int
	slot   chan struct{} // the Group budget slot to give back, or nil
	join   *join
}

// jobs is where the team's idle workers park. It is unbuffered: a send
// completes only by handing the job straight to a parked worker.
var jobs = make(chan job)

func init() {
	for i := 0; i < 2*runtime.GOMAXPROCS(0); i++ {
		go func() {
			for jb := range jobs {
				jb.run()
			}
		}()
	}
}

// run executes the job and reports it to its join, recovering a panic
// so that the join can raise it on the caller.
func (jb *job) run() {
	defer jb.join.done(jb.slot)
	if jb.task != nil {
		jb.task()
	} else {
		jb.chunk(jb.lo, jb.hi)
	}
}

// join is the reusable completion state of one call.
type join struct {
	wg       sync.WaitGroup
	mu       sync.Mutex
	panicked bool
	val      any
}

// joins is the free list of join states, so that a call allocates none.
var joins = make(chan *join, 64)

func getJoin() *join {
	select {
	case j := <-joins:
		return j
	default:
		return new(join)
	}
}

// start hands jb to an idle team worker, or runs it on the caller if
// none is.
func (j *join) start(jb job) {
	j.wg.Add(1)
	select {
	case jobs <- jb:
	default:
		if jb.slot != nil {
			<-jb.slot // running here takes none of the group's budget
			jb.slot = nil
		}
		jb.run()
	}
}

// inline runs jb on the caller as one of j's jobs.
func (j *join) inline(jb job) {
	j.wg.Add(1)
	jb.run()
}

// done ends one job: it frees the job's budget slot and keeps the first
// panic of the call.
func (j *join) done(slot chan struct{}) {
	if v := recover(); v != nil {
		j.mu.Lock()
		if !j.panicked {
			j.panicked, j.val = true, v
		}
		j.mu.Unlock()
	}
	if slot != nil {
		<-slot
	}
	j.wg.Done()
}

// wait blocks until every started job has ended, returns j to the free
// list and raises the first panic any of them had.
func (j *join) wait() {
	j.wg.Wait()
	panicked, val := j.panicked, j.val
	j.panicked, j.val = false, nil
	select {
	case joins <- j:
	default:
	}
	if panicked {
		panic(val)
	}
}

// Group is a bounded fork-join scope for recursive divide-and-conquer
// work (e.g. the octree's concurrent tree carve). Group.Do waits only
// for the tasks of that call, and a task that cannot obtain a worker
// slot simply runs on the calling goroutine — recursion never blocks on
// the budget, it just degrades to serial execution.
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
// A task after the first that gets a slot of the group's budget runs on
// an idle team worker if there is one; every other task executes inline
// on the caller, the first one last, preserving bounded parallelism
// under arbitrary recursion depth. A panic is raised as ForChunks
// raises it.
func (g *Group) Do(tasks ...func()) {
	if len(tasks) == 0 {
		return
	}
	j := getJoin()
	for _, task := range tasks[1:] {
		select {
		case g.slots <- struct{}{}:
			j.start(job{task: task, slot: g.slots, join: j})
		default:
			j.inline(job{task: task, join: j})
		}
	}
	j.inline(job{task: tasks[0], join: j})
	j.wait()
}
