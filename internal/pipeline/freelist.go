package pipeline

import (
	"sync"
	"unsafe"
)

// FreeList is the tree's free list for per-frame and per-message
// storage: a stream's projection point slices, framebuffers, octree
// builders and retired trees, the rasterizer's flush scratch, the wire
// path's payload buffers and the file readers' buffers. A stream allocates at
// most frames-in-flight buffers and recycles them for the rest of the
// run. It is not a sync.Pool: the collector empties a pool, which makes
// what a stream allocates a function of GC timing. Two rules bound what
// a list retains: at most maxFree buffers, and none whose backing array
// is larger than MaxKeptBytes (PutSlice applies it; a caller that
// recycles a struct of slices applies it before Put).
type FreeList[T any] struct {
	newFn func() T
	mu    sync.Mutex
	free  []T
}

// maxFree bounds a FreeList: more buffers than this in flight at once
// re-allocate the excess.
const maxFree = 8

// MaxKeptBytes is the largest buffer a free list keeps: above every
// buffer the benchmark workloads recycle (the largest, a 9.6 MB frame
// file), below a paper-scale time step (~100 MB), so a long-running
// server that once handled one does not hold maxFree of them for life.
const MaxKeptBytes = 16 << 20

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

// GetSlice takes a slice from f resized to length n (contents
// unspecified), allocating only when the one it takes is too short.
func GetSlice[E any](f *FreeList[[]E], n int) []E {
	if s := f.Get(); cap(s) >= n {
		return s[:n]
	}
	return make([]E, n)
}

// PutSlice returns s's backing array to f unless it is empty or larger
// than MaxKeptBytes. The caller must not touch s again.
func PutSlice[E any](f *FreeList[[]E], s []E) {
	var e E
	if cap(s) > 0 && uintptr(cap(s))*unsafe.Sizeof(e) <= MaxKeptBytes {
		f.Put(s[:0])
	}
}
