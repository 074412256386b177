package remote

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestBlobCacheSingleFlight: N concurrent gets of one cold key run the
// fill exactly once; everyone shares its result.
func TestBlobCacheSingleFlight(t *testing.T) {
	c := newBlobCache[int, []byte](4)
	var fills atomic.Int32
	release := make(chan struct{})

	const waiters = 16
	var wg sync.WaitGroup
	blobs := make([][]byte, waiters)
	hits := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			blob, hit, err := c.get(7, func() ([]byte, error) {
				fills.Add(1)
				<-release // hold the flight open until everyone has joined
				return []byte("payload"), nil
			})
			if err != nil {
				t.Error(err)
			}
			blobs[i], hits[i] = blob, hit
		}(i)
	}
	close(release)
	wg.Wait()

	if n := fills.Load(); n != 1 {
		t.Errorf("%d waiters ran %d fills, want 1", waiters, n)
	}
	fillers := 0
	for i := range blobs {
		if string(blobs[i]) != "payload" {
			t.Errorf("waiter %d got %q", i, blobs[i])
		}
		if !hits[i] {
			fillers++
		}
	}
	if fillers != 1 {
		t.Errorf("%d waiters report running the fill, want 1", fillers)
	}
}

// TestBlobCacheEviction: the cache is LRU-bounded, and a touched entry
// outlives an untouched older one.
func TestBlobCacheEviction(t *testing.T) {
	c := newBlobCache[int, []byte](2)
	fill := func(v byte) func() ([]byte, error) {
		return func() ([]byte, error) { return []byte{v}, nil }
	}
	for k := 0; k < 2; k++ {
		if _, hit, _ := c.get(k, fill(byte(k))); hit {
			t.Fatalf("cold key %d hit", k)
		}
	}
	// Touch 0 so 1 is the LRU victim when 2 arrives.
	if _, hit, _ := c.get(0, fill(0)); !hit {
		t.Fatal("warm key 0 missed")
	}
	c.get(2, fill(2))
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, cap 2", c.len())
	}
	if _, hit, _ := c.get(0, fill(0)); !hit {
		t.Error("recently touched key evicted")
	}
	if _, hit, _ := c.get(1, fill(1)); hit {
		t.Error("LRU victim still cached")
	}
}

// TestBlobCacheErrorNotCached: a failed fill propagates to its waiters
// but is not cached — the next get retries and can succeed.
func TestBlobCacheErrorNotCached(t *testing.T) {
	c := newBlobCache[int, []byte](2)
	boom := errors.New("boom")
	if _, _, err := c.get(1, func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.len() != 0 {
		t.Fatal("failed fill was cached")
	}
	blob, hit, err := c.get(1, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(blob) != "ok" {
		t.Errorf("retry after failure = (%q, %v, %v), want fresh ok", blob, hit, err)
	}
	if _, hit, _ = c.get(1, func() ([]byte, error) { return nil, boom }); !hit {
		t.Error("successful retry not cached")
	}
}

// len reports how many completed entries the cache holds (test hook).
func (c *blobCache[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.order)
}
