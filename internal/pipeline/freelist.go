package pipeline

import "sync"

// FreeList is a typed free list for the per-frame storage of a stream
// (projection point slices, framebuffers, octree builders and retired
// trees, ensembles). A stream allocates at most frames-in-flight
// buffers and recycles them for the rest of the run, so allocation
// pressure is independent of stream length. It is a plain bounded list
// and not a sync.Pool: the collector empties a pool, which makes what a
// stream allocates a function of GC timing, where here a buffer stays
// until it is reused. The list keeps at most maxFree buffers and lets
// the collector have any beyond that.
type FreeList[T any] struct {
	newFn func() T
	mu    sync.Mutex
	free  []T
}

// maxFree bounds a FreeList: more frames than this in flight in one
// stage re-allocate the excess.
const maxFree = 8

// NewFreeList returns a free list that allocates with newFn when
// empty.
func NewFreeList[T any](newFn func() T) *FreeList[T] {
	return &FreeList[T]{newFn: newFn}
}

// Get takes a buffer from the list, allocating if none is free.
func (f *FreeList[T]) Get() T {
	f.mu.Lock()
	if n := len(f.free); n > 0 {
		v := f.free[n-1]
		var zero T
		f.free[n-1] = zero
		f.free = f.free[:n-1]
		f.mu.Unlock()
		return v
	}
	f.mu.Unlock()
	return f.newFn()
}

// Put returns a buffer for reuse. The caller must not touch it again.
func (f *FreeList[T]) Put(v T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.free) < maxFree {
		f.free = append(f.free, v)
	}
}

// SlicePool recycles []E scratch slices of varying length: Get returns
// a slice resized to n (reallocating only when capacity is short), Put
// recycles the backing array. It is the recycler for the per-frame
// projection buffers the partition stage consumes.
type SlicePool[E any] struct {
	free *FreeList[*[]E]
}

// NewSlicePool returns an empty slice pool.
func NewSlicePool[E any]() *SlicePool[E] {
	return &SlicePool[E]{
		free: NewFreeList(func() *[]E { return new([]E) }),
	}
}

// Get returns a length-n slice (contents unspecified) backed by a
// recycled array when one fits.
func (p *SlicePool[E]) Get(n int) *[]E {
	s := p.free.Get()
	if cap(*s) < n {
		*s = make([]E, n)
	} else {
		*s = (*s)[:n]
	}
	return s
}

// Put recycles the slice's backing array.
func (p *SlicePool[E]) Put(s *[]E) {
	if s != nil {
		p.free.Put(s)
	}
}
