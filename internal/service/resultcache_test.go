package service

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"seqmine/internal/dict"
	"seqmine/internal/miner"
	"seqmine/internal/plan"
)

func rkey(expr string) resultKey {
	return resultKey{dataset: "ds", generation: 1, expression: expr, sigma: 2, algorithm: AlgoDSeq}
}

func TestResultCacheNilDisabled(t *testing.T) {
	var c *resultCache // what newResultCache(0) returns
	if got := newResultCache(0); got != nil {
		t.Fatalf("newResultCache(0) = %v, want nil", got)
	}
	if _, hit, fl, err := c.lookup(context.Background(), rkey("a")); hit || fl != nil || err != nil {
		t.Fatalf("nil cache lookup = hit=%v flight=%v err=%v, want all-miss", hit, fl, err)
	}
	c.resolve(rkey("a"), nil, cachedResult{}, nil) // must not panic
	c.invalidateDataset("ds")
	if s := c.stats(); s != (cacheStats{}) {
		t.Fatalf("nil cache stats = %+v, want zero", s)
	}
}

func TestResultCacheHitAfterResolve(t *testing.T) {
	c := newResultCache(4)
	_, hit, fl, _ := c.lookup(context.Background(), rkey("a"))
	if hit || fl == nil {
		t.Fatalf("first lookup: hit=%v flight=%v, want miss with flight", hit, fl)
	}
	want := cachedResult{patterns: []miner.Pattern{{Items: []dict.ItemID{1}, Freq: 3}}}
	c.resolve(rkey("a"), fl, want, nil)
	res, hit, fl2, err := c.lookup(context.Background(), rkey("a"))
	if !hit || fl2 != nil || err != nil {
		t.Fatalf("second lookup: hit=%v flight=%v err=%v, want cached hit", hit, fl2, err)
	}
	if len(res.patterns) != 1 || res.patterns[0].Freq != 3 {
		t.Fatalf("cached result = %+v, want %+v", res, want)
	}
	s := c.stats()
	if s.Hits != 1 || s.Misses != 1 || s.Size != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / size 1", s)
	}
}

func TestResultCacheSingleflightShares(t *testing.T) {
	c := newResultCache(4)
	_, _, fl, _ := c.lookup(context.Background(), rkey("a"))
	if fl == nil {
		t.Fatal("leader got no flight")
	}
	const waiters = 8
	results := make(chan cachedResult, waiters)
	var started sync.WaitGroup
	started.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			started.Done()
			res, hit, wfl, err := c.lookup(context.Background(), rkey("a"))
			if !hit || wfl != nil || err != nil {
				panic(fmt.Sprintf("waiter: hit=%v flight=%v err=%v", hit, wfl, err))
			}
			results <- res
		}()
	}
	started.Wait()
	want := cachedResult{patterns: []miner.Pattern{{Items: []dict.ItemID{7}, Freq: 9}}}
	c.resolve(rkey("a"), fl, want, nil)
	for i := 0; i < waiters; i++ {
		res := <-results
		if len(res.patterns) != 1 || res.patterns[0].Freq != 9 {
			t.Fatalf("waiter %d got %+v, want the leader's result", i, res)
		}
	}
	if s := c.stats(); s.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 (the leader)", s.Misses)
	}
}

func TestResultCacheErrorNotCached(t *testing.T) {
	c := newResultCache(4)
	_, _, fl, _ := c.lookup(context.Background(), rkey("a"))
	done := make(chan error, 1)
	go func() {
		_, _, _, err := c.lookup(context.Background(), rkey("a")) // piggybacks on the flight
		done <- err
	}()
	// Wait until the waiter has attached to the flight (SharedIn counts the
	// attach under the cache lock), then fail the flight.
	for c.stats().SharedIn == 0 {
		time.Sleep(time.Millisecond)
	}
	boom := fmt.Errorf("boom")
	c.resolve(rkey("a"), fl, cachedResult{}, boom)
	if err := <-done; err != boom {
		t.Fatalf("waiter error = %v, want the leader's error", err)
	}
	// The error was not cached: the next lookup mines afresh.
	_, hit, fl2, err := c.lookup(context.Background(), rkey("a"))
	if hit || fl2 == nil || err != nil {
		t.Fatalf("post-error lookup: hit=%v flight=%v err=%v, want a fresh miss", hit, fl2, err)
	}
	c.resolve(rkey("a"), fl2, cachedResult{}, nil)
}

func TestResultCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	for _, expr := range []string{"a", "b", "c"} {
		_, _, fl, _ := c.lookup(context.Background(), rkey(expr))
		c.resolve(rkey(expr), fl, cachedResult{}, nil)
	}
	if _, hit, fl, _ := c.lookup(context.Background(), rkey("a")); hit {
		t.Fatal("oldest entry should have been evicted")
	} else {
		c.resolve(rkey("a"), fl, cachedResult{}, nil)
	}
	if s := c.stats(); s.Evictions == 0 || s.Size != 2 {
		t.Fatalf("stats = %+v, want evictions > 0 and size 2", s)
	}
}

func TestResultCacheInvalidateDataset(t *testing.T) {
	c := newResultCache(8)
	other := resultKey{dataset: "other", generation: 1, expression: "a", sigma: 2, algorithm: AlgoDSeq}
	for _, k := range []resultKey{rkey("a"), rkey("b"), other} {
		_, _, fl, _ := c.lookup(context.Background(), k)
		c.resolve(k, fl, cachedResult{}, nil)
	}
	c.invalidateDataset("ds")
	if _, hit, fl, _ := c.lookup(context.Background(), rkey("a")); hit {
		t.Fatal("invalidated entry still served")
	} else {
		c.resolve(rkey("a"), fl, cachedResult{}, nil)
	}
	if _, hit, _, _ := c.lookup(context.Background(), other); !hit {
		t.Fatal("unrelated dataset's entry was dropped")
	}
}

func TestResultKeyDistinguishesParameters(t *testing.T) {
	c := newResultCache(8)
	base := rkey("a")
	_, _, fl, _ := c.lookup(context.Background(), base)
	c.resolve(base, fl, cachedResult{}, nil)
	variants := []resultKey{
		{dataset: "ds", generation: 2, expression: "a", sigma: 2, algorithm: AlgoDSeq},
		{dataset: "ds", generation: 1, expression: "a", sigma: 3, algorithm: AlgoDSeq},
		{dataset: "ds", generation: 1, expression: "a", sigma: 2, algorithm: AlgoDCand},
	}
	for _, k := range variants {
		if _, hit, fl, _ := c.lookup(context.Background(), k); hit {
			t.Fatalf("key %+v hit the cache; generation/sigma/algorithm must partition entries", k)
		} else {
			c.resolve(k, fl, cachedResult{}, nil)
		}
	}
}

// planFieldsOutsideResultKey lists every field of the query plan that
// resultKey leaves out, with the reason it cannot change a query's answer.
// Algorithm is the one plan field in the key.
var planFieldsOutsideResultKey = map[string]string{
	"Workers":            "parallelism of this process",
	"Shards":             "never read: the two-phase executor it sized is gone",
	"TaskPartitions":     "granularity of the cluster scheduler's tasks",
	"SpillThreshold":     "where the shuffle buffers; the reduce loop sees the same groups",
	"SpillTmpDir":        "a directory",
	"SendBufferBytes":    "when the shuffle sends; partial combines merge like batches from different peers",
	"CompressSpill":      "segment encoding on disk",
	"TaskRetries":        "scheduler policy",
	"SpeculativeAfterMS": "scheduler policy",
}

// TestResultKeyCoversPlan walks plan.Plan by reflection (through the embedded
// Knobs and ShuffleConfig): a field that is neither in resultKey nor on the
// cannot-change-the-answer list fails, so an answer-changing plan field cannot
// be added without the cache key learning it.
func TestResultKeyCoversPlan(t *testing.T) {
	if _, ok := reflect.TypeOf(resultKey{}).FieldByName("algorithm"); !ok {
		t.Error("resultKey no longer carries the plan's algorithm")
	}
	seen := map[string]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch {
			case f.Anonymous:
				walk(f.Type)
			case f.Name == "Algorithm": // in the key
			case planFieldsOutsideResultKey[f.Name] == "":
				t.Errorf("plan field %s is neither part of resultKey nor listed as unable to change the answer", f.Name)
			default:
				seen[f.Name] = true
			}
		}
	}
	walk(reflect.TypeOf(plan.Plan{}))
	for name := range planFieldsOutsideResultKey {
		if !seen[name] {
			t.Errorf("stale entry: the plan has no field %s", name)
		}
	}
}
