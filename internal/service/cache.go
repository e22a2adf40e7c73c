package service

import (
	"context"
	"sync"

	"seqmine/internal/dict"
	"seqmine/internal/fst"
	"seqmine/internal/lru"
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

// fstCache is the compiled-pattern cache: an lru.Cache of compiled FSTs whose
// entries also carry the prepared DESQ-DFS state of their (dataset generation,
// expression) once a dfs query has built it, charged against one byte budget
// across the cache.
type fstCache struct {
	entries *lru.Cache[cacheKey, *cacheEntry]

	mu     sync.Mutex // guards every entry's prepared fields and the accounting below
	budget int64      // preparedBudget; tests lower it
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
	fst        *fst.FST
	prep       *miner.Prepared              // nil until built, and again once dropped
	prepFlight *lru.Flight[*miner.Prepared] // the build in progress, if any
	gone       bool                         // evicted or invalidated: retains no state
}

func newFSTCache(capacity int, reg *obs.Registry) *fstCache {
	if capacity <= 0 {
		capacity = 128
	}
	c := &fstCache{
		budget:           preparedBudget,
		prepEntriesGauge: reg.Gauge("seqmine_prepared_entries", "Compiled-pattern cache entries holding a prepared DESQ-DFS state."),
		prepBytesGauge:   reg.Gauge("seqmine_prepared_bytes", "Bytes of prepared DESQ-DFS states retained."),
		prepHitsCtr:      reg.Counter("seqmine_prepared_hits_total", "dfs queries that mined a prepared state built by an earlier or concurrent query."),
		prepBuildsCtr:    reg.Counter("seqmine_prepared_builds_total", "Prepared DESQ-DFS states built."),
		prepEvictionsCtr: reg.Counter("seqmine_prepared_evictions_total", "Prepared DESQ-DFS states dropped for the byte budget or with an evicted entry."),
	}
	c.entries = lru.New(capacity, func(_ cacheKey, e *cacheEntry) {
		c.mu.Lock()
		e.gone = true
		c.dropPrepared(e, true)
		c.mu.Unlock()
	})
	return c
}

// get returns the compiled FST for key, calling compile at most once across
// all concurrent callers on a miss. The second result reports whether the
// caller was served without compiling itself (a cache hit or a shared
// in-flight result).
func (c *fstCache) get(ctx context.Context, key cacheKey, compile func() (*fst.FST, error)) (*fst.FST, bool, error) {
	e, shared, err := c.entries.Get(ctx, key, func() (*cacheEntry, error) {
		f, err := compile()
		return &cacheEntry{fst: f}, err
	})
	if err != nil {
		return nil, shared, err
	}
	return e.fst, shared, nil
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
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	for {
		e, ok := c.entries.Lookup(key)
		if !ok { // evicted or invalidated since get: build for this query alone
			return c.prepare(ctx, nil, f, seqs, workers)
		}
		c.mu.Lock()
		if p := e.prep; p != nil {
			c.prepHit()
			c.mu.Unlock()
			return p, false, nil
		}
		fl := e.prepFlight
		if fl == nil {
			e.prepFlight = lru.NewFlight[*miner.Prepared]()
			c.mu.Unlock()
			return c.prepare(ctx, e, f, seqs, workers)
		}
		c.mu.Unlock()
		if p, retry, err := fl.Wait(ctx); !retry {
			if err == nil {
				c.mu.Lock()
				c.prepHit()
				c.mu.Unlock()
			}
			return p, false, err
		}
	}
}

// prepare builds a state as the owner of e's flight (e is nil for a caller
// whose entry left the cache), retains it if e is still cached and the state
// fits the budget, and resolves the flight.
func (c *fstCache) prepare(ctx context.Context, e *cacheEntry, f *fst.FST, seqs [][]dict.ItemID, workers int) (*miner.Prepared, bool, error) {
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
	var fl *lru.Flight[*miner.Prepared]
	if e != nil {
		fl, e.prepFlight = e.prepFlight, nil
		if p != nil && !e.gone && p.Bytes() <= c.budget {
			c.retain(e, p)
		}
	}
	c.mu.Unlock()
	if fl != nil {
		fl.Resolve(p, err)
	}
	return p, p != nil, err
}

// prepHit counts one query served a state it did not build. Callers hold c.mu.
func (c *fstCache) prepHit() {
	c.PreparedHits++
	c.prepHitsCtr.Inc()
}

// retain puts p, which fits the budget, on e and takes the prepared states of
// the least recently used other entries until the sum fits too. Callers hold
// c.mu.
func (c *fstCache) retain(e *cacheEntry, p *miner.Prepared) {
	e.prep = p
	c.PreparedEntries++
	c.PreparedBytes += p.Bytes()
	c.entries.Walk(func(_ cacheKey, v *cacheEntry) bool {
		if c.PreparedBytes <= c.budget {
			return false
		}
		if v != e {
			c.dropPrepared(v, true)
		}
		return true
	})
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
// (any generation), and their prepared states. Entries would age out anyway
// once unreachable; this frees them eagerly when a dataset is replaced or
// unregistered.
func (c *fstCache) invalidateDataset(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries.Remove(func(k cacheKey, _ *cacheEntry) bool { return k.dataset == name }) {
		e.gone = true
		c.dropPrepared(e, false)
	}
}

// fstCacheStats is a snapshot of the compiled-pattern cache's entry counters
// and prepared-state accounting.
type fstCacheStats struct {
	lru.Stats
	preparedStats
}

func (c *fstCache) stats() fstCacheStats {
	st := c.entries.Stats()
	c.mu.Lock()
	defer c.mu.Unlock()
	return fstCacheStats{Stats: st, preparedStats: c.preparedStats}
}
