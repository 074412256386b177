package remote

import "sync"

// blobCache is the encode-once primitive of the fan-out path: a small,
// bounded LRU of blobs or decoded frames, single-flight on a miss.
// N concurrent requests for the same key trigger exactly one fill —
// the rest block on the first flight and share its result — so
// per-frame server work (frame encodes, renders, delta encodes) stays
// independent of how many subscribers ask. Failed fills are not
// cached: every waiter of the failing flight gets its error, and the
// next fresh request retries.
type blobCache[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	entries map[K]*cacheEntry[V]
	order   []K // completed keys, oldest first (in-flight keys are never evicted)
}

type cacheEntry[V any] struct {
	done chan struct{} // closed when the fill completes
	blob V
	err  error
}

func newBlobCache[K comparable, V any](capacity int) *blobCache[K, V] {
	return &blobCache[K, V]{cap: capacity, entries: make(map[K]*cacheEntry[V])}
}

// get returns the blob for key, filling it with fill on a miss. The
// second result reports whether this call joined an existing entry
// (hit) rather than running fill itself — the counter feed for
// encodes-per-frame accounting.
func (c *blobCache[K, V]) get(key K, fill func() (V, error)) (V, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.touch(key)
		c.mu.Unlock()
		<-e.done
		return e.blob, true, e.err
	}
	e := &cacheEntry[V]{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	e.blob, e.err = fill()
	close(e.done)

	c.mu.Lock()
	if e.err != nil {
		// Only drop the entry if it is still ours: a retry may have
		// already replaced it.
		if c.entries[key] == e {
			delete(c.entries, key)
		}
	} else {
		c.order = append(c.order, key)
		for len(c.order) > c.cap {
			evict := c.order[0]
			c.order = c.order[1:]
			delete(c.entries, evict)
		}
	}
	c.mu.Unlock()
	return e.blob, false, e.err
}

// touch moves key to the most-recent end of the eviction order (a hit
// on an in-flight entry is not in order yet; that is fine — it is
// appended when the fill completes).
func (c *blobCache[K, V]) touch(key K) {
	for i, k := range c.order {
		if k == key {
			copy(c.order[i:], c.order[i+1:])
			c.order[len(c.order)-1] = key
			return
		}
	}
}
