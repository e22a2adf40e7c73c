// Package lru is the one cache of the tree: a map with a recency list that
// drops the least recently used entry beyond a fixed capacity, and one flight
// per missing key, so that concurrent callers of a key share a single build.
// The service's compiled-pattern and result caches, a worker's dataset store
// and the coordinator's bundle cache are all instances of it.
package lru

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
)

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	Size      int    `json:"size"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`            // served from the cache without waiting
	SharedIn  uint64 `json:"shared_inflight"` // served by waiting on another caller's build
	Misses    uint64 `json:"misses"`          // ran a build
	Evictions uint64 `json:"evictions"`       // dropped for the capacity
}

// Cache is an LRU map from K to V with one flight per missing key; all methods
// are safe for concurrent use. The nil *Cache is a disabled cache: Get runs
// every build and stores nothing, and the other methods see an empty cache.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	onEvict  func(K, V)
	ll       list.List // of *entry[K, V]; front = most recently used
	items    map[K]*list.Element
	inflight map[K]*Flight[V]
	stats    Stats
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns a cache of capacity entries, or the nil cache when capacity <= 0.
// onEvict, when non-nil, receives each entry the capacity pushes out, after
// the cache's lock is released: it may take locks held around calls into the
// cache.
func New[K comparable, V any](capacity int, onEvict func(K, V)) *Cache[K, V] {
	if capacity <= 0 {
		return nil
	}
	return &Cache[K, V]{onEvict: onEvict, items: map[K]*list.Element{},
		inflight: map[K]*Flight[V]{}, stats: Stats{Capacity: capacity}}
}

// Get returns key's value, calling build on a miss at most once across the
// concurrent callers of key (see Flight). A successful build is stored as the
// most recently used entry; an error, or a panic turned into one, reaches the
// owner and its waiters and is never stored. shared says the outcome is not
// this caller's own build: a hit, or another caller's flight.
func (c *Cache[K, V]) Get(ctx context.Context, key K, build func() (V, error)) (v V, shared bool, err error) {
	if c == nil {
		v, err = run(build)
		return v, false, err
	}
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			c.stats.Hits++
			v = el.Value.(*entry[K, V]).val
			c.mu.Unlock()
			return v, true, nil
		}
		fl, ok := c.inflight[key]
		if !ok {
			break
		}
		c.stats.SharedIn++
		c.mu.Unlock()
		if v, retry, err := fl.Wait(ctx); !retry {
			return v, true, err
		}
	}
	fl := NewFlight[V]()
	c.inflight[key] = fl
	c.stats.Misses++
	c.mu.Unlock()

	v, err = run(build)
	var victim *entry[K, V]
	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil { // only the owner of key's flight inserts key: it is absent
		c.items[key] = c.ll.PushFront(&entry[K, V]{key, v})
		if c.ll.Len() > c.stats.Capacity {
			victim = c.ll.Remove(c.ll.Back()).(*entry[K, V])
			delete(c.items, victim.key)
			c.stats.Evictions++
		}
	}
	c.mu.Unlock()
	fl.Resolve(v, err)
	if victim != nil && c.onEvict != nil {
		c.onEvict(victim.key, victim.val)
	}
	return v, false, err
}

// run calls build, turning a panic into an error: a panicking build must still
// resolve its flight, or every waiter would block until its own deadline.
func run[V any](build func() (V, error)) (v V, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero V
			v, err = zero, fmt.Errorf("panic: %v", r)
		}
	}()
	return build()
}

// Lookup returns the value of a present key and marks it most recently used.
// It counts nothing and builds nothing.
func (c *Cache[K, V]) Lookup(key K) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if ok {
		c.ll.MoveToFront(el)
		v = el.Value.(*entry[K, V]).val
	}
	return v, ok
}

// Remove drops the entries match accepts and returns their values. That is
// not eviction: nothing is counted, the hook is not called, and a build in
// flight goes on.
func (c *Cache[K, V]) Remove(match func(K, V) bool) (removed []V) {
	for _, e := range c.entries() {
		if !match(e.key, e.val) {
			continue
		}
		c.mu.Lock()
		if el, ok := c.items[e.key]; ok && el.Value.(*entry[K, V]) == e {
			c.ll.Remove(el)
			delete(c.items, e.key)
			removed = append(removed, e.val)
		}
		c.mu.Unlock()
	}
	return removed
}

// Walk calls fn on the entries from the least to the most recently used until
// fn returns false. The entries are those present when Walk was called.
func (c *Cache[K, V]) Walk(fn func(K, V) bool) {
	for _, e := range c.entries() {
		if !fn(e.key, e.val) {
			return
		}
	}
}

// entries returns the present entries from the least to the most recently
// used, so that the caller's functions run outside the lock.
func (c *Cache[K, V]) entries() []*entry[K, V] {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	es := make([]*entry[K, V], 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		es = append(es, el.Value.(*entry[K, V]))
	}
	return es
}

// Stats returns the cache's counters; all zero for the nil cache.
func (c *Cache[K, V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = c.ll.Len()
	return s
}

// Flight is one build in progress that concurrent callers share, under one
// rule: a waiter watches its own context as well as the flight, so it can leave
// before the owner finishes and never inherits the owner's deadline; an owner
// that ended in its own cancellation or deadline leaves nothing behind, neither
// a value nor an error, and the waiters whose contexts are live go round again,
// one of them becoming the owner; and the owner takes the flight out of its
// cache before resolving it, so a waiter going round again does not find it.
type Flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewFlight returns an unresolved flight.
func NewFlight[V any]() *Flight[V] { return &Flight[V]{done: make(chan struct{})} }

// Resolve publishes the owner's outcome to the waiters. Call it once.
func (f *Flight[V]) Resolve(v V, err error) {
	f.val, f.err = v, err
	close(f.done)
}

// Wait returns the owner's outcome, or ctx's error as soon as ctx ends. When
// the owner's outcome was the end of its own context, Wait reports retry if
// ctx is live and ctx's error if it is not.
func (f *Flight[V]) Wait(ctx context.Context) (v V, retry bool, err error) {
	select {
	case <-f.done:
		if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
			return v, ctx.Err() == nil, ctx.Err()
		}
		return f.val, false, f.err
	case <-ctx.Done():
		return v, false, ctx.Err()
	}
}
