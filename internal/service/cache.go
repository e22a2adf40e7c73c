package service

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"

	"seqmine/internal/dict"
	"seqmine/internal/fst"
	"seqmine/internal/miner"
	"seqmine/internal/obs"
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

// preparedBudget bounds the bytes of prepared DESQ-DFS states the
// compiled-pattern cache retains across all of its entries. A state is about
// 170 bytes per sequence of its dataset on NYT-like data (4-5.4 MB for 30,000
// sentences), so the budget holds the states of a dozen such (dataset,
// expression) pairs.
const preparedBudget = 64 << 20

// fstCache is an LRU cache of compiled FSTs with singleflight deduplication:
// concurrent lookups of the same key while a compile is in flight block and
// share the one result instead of compiling again. An entry also carries the
// prepared DESQ-DFS state of its (dataset generation, expression) once a dfs
// query has built it, charged against one byte budget across the cache.
type fstCache struct {
	mu       sync.Mutex
	capacity int
	budget   int64      // preparedBudget; tests lower it
	ll       *list.List // front = most recently used
	items    map[cacheKey]*list.Element
	inflight map[cacheKey]*flight[*fst.FST]

	hits      uint64 // served from cache without waiting
	shared    uint64 // served by waiting on an in-flight compile
	misses    uint64 // triggered a compile
	evictions uint64

	preparedStats
	// registry mirrors of the five (nil-safe).
	prepEntriesGauge, prepBytesGauge             *obs.Gauge
	prepHitsCtr, prepBuildsCtr, prepEvictionsCtr *obs.Counter
}

// preparedStats is the prepared-state accounting of the compiled-pattern cache.
type preparedStats struct {
	PreparedEntries   int    `json:"prepared_entries"` // entries holding a state
	PreparedBytes     int64  `json:"prepared_bytes"`   // sum of their Bytes(), <= budget
	PreparedHits      uint64 `json:"prepared_hits"`
	PreparedBuilds    uint64 `json:"prepared_builds"`
	PreparedEvictions uint64 `json:"prepared_evictions"` // dropped for the budget or with an LRU victim
}

type cacheEntry struct {
	key        cacheKey
	fst        *fst.FST
	prep       *miner.Prepared          // nil until built, and again once evicted
	prepFlight *flight[*miner.Prepared] // the build in progress, if any
}

// flight is one computation in progress that concurrent callers of a cache
// share. Compiled FSTs, prepared states and results follow one rule: a waiter
// watches its own context as well as the flight, and an owner that ended in
// its own cancellation or deadline leaves nothing behind — neither a value nor
// a cached error — so waiters whose contexts are live go round again and one
// of them becomes the owner.
type flight[T any] struct {
	done chan struct{}
	val  T
	err  error
}

func newFlight[T any]() *flight[T] { return &flight[T]{done: make(chan struct{})} }

// resolve publishes the owner's outcome to the waiters. The owner takes the
// flight out of its cache first, so that a waiter going round again does not
// find it.
func (fl *flight[T]) resolve(val T, err error) {
	fl.val, fl.err = val, err
	close(fl.done)
}

// wait returns the owner's outcome — retry, and nothing else, when that is the
// end of the owner's own context — or ctx's error as soon as ctx ends.
func (fl *flight[T]) wait(ctx context.Context) (val T, retry bool, err error) {
	select {
	case <-fl.done:
		if errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded) {
			return val, true, nil
		}
		return fl.val, false, fl.err
	case <-ctx.Done():
		return val, false, ctx.Err()
	}
}

func newFSTCache(capacity int, reg *obs.Registry) *fstCache {
	if capacity <= 0 {
		capacity = 128
	}
	return &fstCache{
		capacity: capacity,
		budget:   preparedBudget,
		ll:       list.New(),
		items:    make(map[cacheKey]*list.Element),
		inflight: make(map[cacheKey]*flight[*fst.FST]),

		prepEntriesGauge: reg.Gauge("seqmine_prepared_entries", "Compiled-pattern cache entries holding a prepared DESQ-DFS state."),
		prepBytesGauge:   reg.Gauge("seqmine_prepared_bytes", "Bytes of prepared DESQ-DFS states retained."),
		prepHitsCtr:      reg.Counter("seqmine_prepared_hits_total", "dfs queries that mined a prepared state built by an earlier or concurrent query."),
		prepBuildsCtr:    reg.Counter("seqmine_prepared_builds_total", "Prepared DESQ-DFS states built."),
		prepEvictionsCtr: reg.Counter("seqmine_prepared_evictions_total", "Prepared DESQ-DFS states dropped for the byte budget or with an evicted entry."),
	}
}

// get returns the compiled FST for key, calling compile at most once across
// all concurrent callers on a miss. The second result reports whether the
// caller was served without compiling itself (a cache hit or a shared
// in-flight result).
func (c *fstCache) get(ctx context.Context, key cacheKey, compile func() (*fst.FST, error)) (*fst.FST, bool, error) {
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			c.hits++
			f := el.Value.(*cacheEntry).fst
			c.mu.Unlock()
			return f, true, nil
		}
		fl, ok := c.inflight[key]
		if !ok {
			break
		}
		c.shared++
		c.mu.Unlock()
		if f, retry, err := fl.wait(ctx); !retry {
			return f, true, err
		}
	}
	fl := newFlight[*fst.FST]()
	c.inflight[key] = fl
	c.misses++
	c.mu.Unlock()

	// A panicking compile must still resolve the flight, or every waiter on
	// this key (each holding a concurrency slot and dataset lease) would
	// block until its deadline; it is reported as an error instead.
	var f *fst.FST
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				f, err = nil, fmt.Errorf("compiling pattern: panic: %v", r)
			}
		}()
		f, err = compile()
	}()

	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil {
		c.insert(key, f)
	}
	c.mu.Unlock()
	fl.resolve(f, err)
	return f, false, err
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
		c.dropPrepared(tail.Value.(*cacheEntry), true)
	}
}

// prepared returns the prepared DESQ-DFS state of key's entry — the state of f
// over seqs — building it on workers goroutines at most once across concurrent
// callers. built reports whether this caller built it. The state is retained
// on the entry if it fits the budget, least recently used entries giving up
// theirs (not their FSTs) until the sum does; a state larger than the budget,
// or one whose entry left the cache meanwhile, serves its callers and is not
// retained. Nothing is reference-counted: a state a query is mining stays
// alive through that query's pointer and is collected after it.
func (c *fstCache) prepared(ctx context.Context, key cacheKey, f *fst.FST, seqs [][]dict.ItemID, workers int) (p *miner.Prepared, built bool, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		c.mu.Lock()
		el := c.items[key]
		if el == nil { // evicted or invalidated since get: build for this query alone
			c.mu.Unlock()
			return c.prepare(ctx, nil, f, seqs, workers)
		}
		e := el.Value.(*cacheEntry)
		if p := e.prep; p != nil {
			c.prepHit()
			c.mu.Unlock()
			return p, false, nil
		}
		fl := e.prepFlight
		if fl == nil {
			e.prepFlight = newFlight[*miner.Prepared]()
			c.mu.Unlock()
			return c.prepare(ctx, el, f, seqs, workers)
		}
		c.mu.Unlock()
		if p, retry, err := fl.wait(ctx); !retry {
			if err == nil {
				c.mu.Lock()
				c.prepHit()
				c.mu.Unlock()
			}
			return p, false, err
		}
	}
}

// prepare builds a state as the owner of el's flight (el is nil for a caller
// whose entry left the cache), retains it if el is still cached and the state
// fits the budget, and resolves the flight.
func (c *fstCache) prepare(ctx context.Context, el *list.Element, f *fst.FST, seqs [][]dict.ItemID, workers int) (*miner.Prepared, bool, error) {
	p := miner.Prepare(ctx, f, seqs, workers)
	var err error
	if p == nil {
		err = ctx.Err() // Prepare gives up only on ctx
	}
	c.mu.Lock()
	if p != nil {
		c.PreparedBuilds++
		c.prepBuildsCtr.Inc()
	}
	var fl *flight[*miner.Prepared]
	if el != nil {
		e := el.Value.(*cacheEntry)
		fl, e.prepFlight = e.prepFlight, nil
		if p != nil && c.items[e.key] == el && p.Bytes() <= c.budget {
			c.retain(el, p)
		}
	}
	c.mu.Unlock()
	if fl != nil {
		fl.resolve(p, err)
	}
	return p, p != nil, err
}

// prepHit counts one query served a state it did not build. Callers hold c.mu.
func (c *fstCache) prepHit() {
	c.PreparedHits++
	c.prepHitsCtr.Inc()
}

// retain puts p, which fits the budget, on el's entry and takes the prepared
// states of the least recently used other entries until the sum fits too.
// Callers hold c.mu.
func (c *fstCache) retain(el *list.Element, p *miner.Prepared) {
	el.Value.(*cacheEntry).prep = p
	c.PreparedEntries++
	c.PreparedBytes += p.Bytes()
	for v := c.ll.Back(); v != nil && c.PreparedBytes > c.budget; v = v.Prev() {
		if v != el {
			c.dropPrepared(v.Value.(*cacheEntry), true)
		}
	}
	c.prepEntriesGauge.Set(int64(c.PreparedEntries))
	c.prepBytesGauge.Set(c.PreparedBytes)
}

// dropPrepared takes e's prepared state, if it has one, off the books; evicted
// says whether that counts as an eviction (not when its dataset went away).
// Callers hold c.mu.
func (c *fstCache) dropPrepared(e *cacheEntry, evicted bool) {
	if e.prep == nil {
		return
	}
	c.PreparedEntries--
	c.PreparedBytes -= e.prep.Bytes()
	e.prep = nil
	if evicted {
		c.PreparedEvictions++
		c.prepEvictionsCtr.Inc()
	}
	c.prepEntriesGauge.Set(int64(c.PreparedEntries))
	c.prepBytesGauge.Set(c.PreparedBytes)
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
			c.dropPrepared(e, false)
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

// fstCacheStats is a snapshot of the compiled-pattern cache's entry counters
// and prepared-state accounting.
type fstCacheStats struct {
	cacheStats
	preparedStats
}

func (c *fstCache) stats() fstCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fstCacheStats{
		cacheStats: cacheStats{
			Size:      c.ll.Len(),
			Capacity:  c.capacity,
			Hits:      c.hits,
			SharedIn:  c.shared,
			Misses:    c.misses,
			Evictions: c.evictions,
		},
		preparedStats: c.preparedStats,
	}
}
