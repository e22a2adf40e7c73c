package service

import (
	"container/list"
	"context"
	"sync"

	"seqmine/internal/dict"
	"seqmine/internal/miner"
)

// resultKey identifies one query's answer. The dataset generation is part of
// the key, so replacing a dataset under the same name (a generation bump)
// can never serve stale patterns. The algorithm is included defensively:
// every backend is tested to produce identical pattern sets, but a cached
// answer must never paper over a divergence bug between backends. Execution
// knobs (workers, spill, streaming, cluster) provably do
// not affect the answer — equivalence is CI-gated at every level, and
// TestResultKeyCoversPlan fails on a plan field nobody classified — and are
// deliberately not part of the key, so a cached in-process answer serves a
// later distributed query of the same logical question.
type resultKey struct {
	dataset    string
	generation uint64
	expression string
	sigma      int64
	algorithm  Algorithm
}

// cachedResult is one cached answer. Patterns and Dict are shared, immutable
// by convention (every consumer only reads them — the HTTP layer decodes into
// fresh wire structs).
type cachedResult struct {
	patterns []miner.Pattern
	dict     *dict.Dictionary
}

// resultCache is an LRU over query answers with singleflight deduplication:
// while one query mines a key, concurrent identical queries wait and share
// its answer instead of mining again — without holding admission slots.
// A nil *resultCache disables caching (every lookup misses and mine runs).
type resultCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List
	items    map[resultKey]*list.Element
	inflight map[resultKey]*flight[cachedResult]

	hits, shared, misses, evictions uint64
}

type resultEntry struct {
	key resultKey
	res cachedResult
}

// newResultCache builds a cache of the given entry capacity; <= 0 disables
// caching (returns nil).
func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	return &resultCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[resultKey]*list.Element),
		inflight: make(map[resultKey]*flight[cachedResult]),
	}
}

// lookup returns a cached answer, or registers the caller as the miner of
// key. Outcomes:
//
//   - cached answer: (res, true, nil, nil) — serve it;
//   - someone else is mining it: blocks until they are done or ctx ends, then
//     (res, true, nil, err) with their outcome or ctx's error — unless their
//     own context ended, in which case lookup starts over (see flight);
//   - the caller should mine: (_, false, flight, nil) — mine, then call
//     resolve(flight, ...) exactly once.
func (c *resultCache) lookup(ctx context.Context, key resultKey) (cachedResult, bool, *flight[cachedResult], error) {
	if c == nil {
		return cachedResult{}, false, nil, nil
	}
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			c.hits++
			res := el.Value.(*resultEntry).res
			c.mu.Unlock()
			return res, true, nil, nil
		}
		fl, ok := c.inflight[key]
		if !ok {
			fl = newFlight[cachedResult]()
			c.inflight[key] = fl
			c.misses++
			c.mu.Unlock()
			return cachedResult{}, false, fl, nil
		}
		c.shared++
		c.mu.Unlock()
		if res, retry, err := fl.wait(ctx); !retry {
			return res, true, nil, err
		}
	}
}

// resolve completes a flight: a successful answer is inserted into the LRU,
// an error is delivered to waiters but not cached — and not even delivered
// when it is the end of the owner's own context (see flight).
func (c *resultCache) resolve(key resultKey, fl *flight[cachedResult], res cachedResult, err error) {
	if c == nil || fl == nil {
		return
	}
	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil {
		c.insert(key, res)
	}
	c.mu.Unlock()
	fl.resolve(res, err)
}

// insert adds an entry, evicting from the LRU tail. Callers hold c.mu.
func (c *resultCache) insert(key resultKey, res cachedResult) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*resultEntry).res = res
		return
	}
	c.items[key] = c.ll.PushFront(&resultEntry{key: key, res: res})
	for c.ll.Len() > c.capacity {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*resultEntry).key)
		c.evictions++
	}
}

// invalidateDataset drops every cached answer of the named dataset (any
// generation): replacement bumps the generation (stale keys become
// unreachable anyway), this frees the memory eagerly.
func (c *resultCache) invalidateDataset(name string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*resultEntry)
		if e.key.dataset == name {
			c.ll.Remove(el)
			delete(c.items, e.key)
		}
		el = next
	}
}

func (c *resultCache) stats() cacheStats {
	if c == nil {
		return cacheStats{}
	}
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
