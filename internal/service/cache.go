package service

import (
	"container/list"
	"fmt"
	"sync"

	"seqmine/internal/fst"
)

// cacheKey identifies one compiled constraint. The dataset generation is part
// of the key so replacing a dataset under the same name invalidates its
// cached FSTs (they become unreachable and age out of the LRU). The pattern
// expression fully determines the FST for a given dictionary; mining options
// (algorithm, workers) do not affect compilation and are therefore
// not part of the key.
type cacheKey struct {
	dataset    string
	generation uint64
	expression string
}

// fstCache is an LRU cache of compiled FSTs with singleflight deduplication:
// concurrent lookups of the same key while a compile is in flight block and
// share the one result instead of compiling again.
type fstCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[cacheKey]*list.Element
	inflight map[cacheKey]*flight

	hits      uint64 // served from cache without waiting
	shared    uint64 // served by waiting on an in-flight compile
	misses    uint64 // triggered a compile
	evictions uint64
}

type cacheEntry struct {
	key cacheKey
	fst *fst.FST
}

type flight struct {
	done chan struct{}
	fst  *fst.FST
	err  error
}

func newFSTCache(capacity int) *fstCache {
	if capacity <= 0 {
		capacity = 128
	}
	return &fstCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[cacheKey]*list.Element),
		inflight: make(map[cacheKey]*flight),
	}
}

// get returns the compiled FST for key, calling compile at most once across
// all concurrent callers on a miss. The second result reports whether the
// caller was served without compiling itself (a cache hit or a shared
// in-flight result).
func (c *fstCache) get(key cacheKey, compile func() (*fst.FST, error)) (*fst.FST, bool, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		f := el.Value.(*cacheEntry).fst
		c.mu.Unlock()
		return f, true, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.shared++
		c.mu.Unlock()
		<-fl.done
		return fl.fst, true, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.misses++
	c.mu.Unlock()

	// A panicking compile must still resolve the flight, or every waiter on
	// this key (each holding a concurrency slot and dataset lease) would
	// block forever; it is reported as an error instead.
	func() {
		defer func() {
			if r := recover(); r != nil {
				fl.fst, fl.err = nil, fmt.Errorf("compiling pattern: panic: %v", r)
			}
		}()
		fl.fst, fl.err = compile()
	}()
	close(fl.done)

	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err == nil {
		c.insert(key, fl.fst)
	}
	c.mu.Unlock()
	return fl.fst, false, fl.err
}

// insert adds an entry, evicting from the LRU tail. Callers hold c.mu.
func (c *fstCache) insert(key cacheKey, f *fst.FST) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).fst = f
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, fst: f})
	for c.ll.Len() > c.capacity {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// invalidateDataset drops every cached FST belonging to the named dataset
// (any generation). Entries would age out anyway once unreachable; this frees
// them eagerly when a dataset is unregistered.
func (c *fstCache) invalidateDataset(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		if e.key.dataset == name {
			c.ll.Remove(el)
			delete(c.items, e.key)
		}
		el = next
	}
}

// cacheStats is a point-in-time snapshot of the cache counters.
type cacheStats struct {
	Size      int    `json:"size"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	SharedIn  uint64 `json:"shared_inflight"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

func (c *fstCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Size:      c.ll.Len(),
		Capacity:  c.capacity,
		Hits:      c.hits,
		SharedIn:  c.shared,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
