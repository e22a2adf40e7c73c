package service

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"seqmine/internal/fst"
	"seqmine/internal/paperex"
)

func testFST(t *testing.T) *fst.FST {
	t.Helper()
	return fst.MustCompile(paperex.PatternExpression, paperex.Dict())
}

func key(expr string) cacheKey {
	return cacheKey{dataset: "ds", generation: 1, expression: expr}
}

func TestCacheLRUEviction(t *testing.T) {
	f := testFST(t)
	c := newFSTCache(2, nil)
	compiles := 0
	compile := func() (*fst.FST, error) { compiles++; return f, nil }

	for _, expr := range []string{"p1", "p2"} {
		if _, hit, err := c.get(context.Background(), key(expr), compile); err != nil || hit {
			t.Fatalf("first get(%s): hit=%v err=%v", expr, hit, err)
		}
	}
	// Touch p1 so p2 becomes the LRU entry, then insert p3 to evict p2.
	if _, hit, _ := c.get(context.Background(), key("p1"), compile); !hit {
		t.Fatal("get(p1) should hit")
	}
	if _, hit, _ := c.get(context.Background(), key("p3"), compile); hit {
		t.Fatal("get(p3) should miss")
	}
	if _, hit, _ := c.get(context.Background(), key("p1"), compile); !hit {
		t.Fatal("p1 should still be cached")
	}
	if _, hit, _ := c.get(context.Background(), key("p2"), compile); hit {
		t.Fatal("p2 should have been evicted")
	}
	st := c.stats()
	if st.Evictions != 2 { // p2 evicted by p3, then p3 or p1 evicted by p2's re-insert
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
	if st.Size != 2 {
		t.Errorf("size = %d, want 2", st.Size)
	}
	if compiles != 4 {
		t.Errorf("compiles = %d, want 4", compiles)
	}
}

func TestCacheSingleflight(t *testing.T) {
	f := testFST(t)
	c := newFSTCache(8, nil)
	var compiles atomic.Int64
	release := make(chan struct{})
	compile := func() (*fst.FST, error) {
		compiles.Add(1)
		<-release
		return f, nil
	}

	const n = 8
	var wg sync.WaitGroup
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			got, _, err := c.get(context.Background(), key("shared"), compile)
			if err != nil || got != f {
				t.Errorf("get = %v, %v", got, err)
			}
		}()
	}
	for i := 0; i < n; i++ {
		<-started
	}
	close(release)
	wg.Wait()

	if got := compiles.Load(); got != 1 {
		t.Errorf("compile ran %d times, want 1 (singleflight)", got)
	}
	st := c.stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.SharedIn != n-1 {
		t.Errorf("hits+shared = %d, want %d", st.Hits+st.SharedIn, n-1)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	d := paperex.Dict()
	c := newFSTCache(4, nil)
	bad := func() (*fst.FST, error) { return fst.Compile("(((", d) }
	if _, _, err := c.get(context.Background(), key("bad"), bad); err == nil {
		t.Fatal("expected compile error")
	}
	if st := c.stats(); st.Size != 0 {
		t.Errorf("failed compile must not be cached, size = %d", st.Size)
	}
	// A later attempt compiles again (and may succeed).
	good := func() (*fst.FST, error) { return fst.Compile(paperex.PatternExpression, d) }
	if _, hit, err := c.get(context.Background(), key("bad"), good); err != nil || hit {
		t.Fatalf("retry after error: hit=%v err=%v", hit, err)
	}
}

func TestCacheInvalidateDataset(t *testing.T) {
	f := testFST(t)
	c := newFSTCache(8, nil)
	compile := func() (*fst.FST, error) { return f, nil }
	c.get(context.Background(), cacheKey{dataset: "a", generation: 1, expression: "p"}, compile)
	c.get(context.Background(), cacheKey{dataset: "b", generation: 1, expression: "p"}, compile)
	c.invalidateDataset("a")
	if st := c.stats(); st.Size != 1 {
		t.Fatalf("size after invalidate = %d, want 1", st.Size)
	}
	if _, hit, _ := c.get(context.Background(), cacheKey{dataset: "b", generation: 1, expression: "p"}, compile); !hit {
		t.Error("dataset b entry should survive invalidation of a")
	}
	if _, hit, _ := c.get(context.Background(), cacheKey{dataset: "a", generation: 1, expression: "p"}, compile); hit {
		t.Error("dataset a entry should be gone")
	}
}
