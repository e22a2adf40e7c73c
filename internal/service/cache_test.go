package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"seqmine/internal/fst"
	"seqmine/internal/miner"
	"seqmine/internal/paperex"
	"seqmine/internal/plan"
	"seqmine/internal/seqdb"
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
	st := c.entries.Stats()
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
	st := c.entries.Stats()
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
	if st := c.entries.Stats(); st.Size != 0 {
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
	if st := c.entries.Stats(); st.Size != 1 {
		t.Fatalf("size after invalidate = %d, want 1", st.Size)
	}
	if _, hit, _ := c.get(context.Background(), cacheKey{dataset: "b", generation: 1, expression: "p"}, compile); !hit {
		t.Error("dataset b entry should survive invalidation of a")
	}
	if _, hit, _ := c.get(context.Background(), cacheKey{dataset: "a", generation: 1, expression: "p"}, compile); hit {
		t.Error("dataset a entry should be gone")
	}
}

// TestCacheAccountingExact drives one fixed query sequence — hits, a shared
// flight, LRU evictions in both caches, a prepared-budget eviction and a
// dataset replacement — with and without a result cache, and checks every
// count of the two LRUs, the admission block of GET /metrics, and the
// result-cache and prepared-state series against values worked out by hand. Prepared-state sizes come from miner.Prepare.
func TestCacheAccountingExact(t *testing.T) {
	const e1, e2 = "[.*(.)]{1,3}.*", "[.*(.)]{1,2}.*"
	random := func(seed int64) *seqdb.Database {
		d, seqs := paperex.RandomDatabase(rand.New(rand.NewSource(seed)), 300, 8)
		return &seqdb.Database{Dict: d, Sequences: seqs}
	}
	size := func(db *seqdb.Database) int64 {
		return miner.Prepare(context.Background(), fst.MustCompile(e1, db.Dict), db.Sequences, 1).Bytes()
	}
	d0, d1, d2, d1new := random(0), random(1), random(2), random(7)
	b0, b1, b2, b1new := size(d0), size(d1), size(d2), size(d1new)
	budget := max(b0+b1, b0+b2, b1+b2) // any two states fit, three do not

	for _, resultCache := range []int{2, 0} {
		t.Run(fmt.Sprintf("result cache %d", resultCache), func(t *testing.T) {
			svc := New(Config{CacheSize: 3, MaxConcurrent: 1, QueueDepth: 4, ResultCacheSize: resultCache})
			svc.cache.budget = budget
			for name, db := range map[string]*seqdb.Database{"d0": d0, "d1": d1, "d2": d2} {
				if _, err := svc.RegisterDataset(name, db); err != nil {
					t.Fatal(err)
				}
			}
			// A query's slot comes back just after Mine returns; the next one
			// waits for it, so that it is admitted without queueing.
			idle := func() { await(t, "the slot to come back", func() bool { return len(svc.adm.slots) == 0 }) }
			query := func(ds, expr string, sigma int64, algo Algorithm) Query {
				return Query{Dataset: ds, Expression: expr, Sigma: sigma,
					Options: ExecOptions{Plan: plan.Plan{Algorithm: algo, Workers: 1}}}
			}
			mine := func(q Query) {
				t.Helper()
				idle()
				if _, err := svc.Mine(context.Background(), q); err != nil {
					t.Fatal(err)
				}
			}

			mine(query("d0", e1, 5, AlgoDFS)) // builds b0
			mine(query("d0", e1, 5, AlgoDFS)) // result hit, or FST + prepared hit
			mine(query("d1", e1, 5, AlgoDFS)) // builds b1
			mine(query("d0", e1, 9, AlgoDFS)) // FST + prepared hit; evicts result d0/5
			mine(query("d2", e1, 5, AlgoDFS)) // builds b2: d1 loses its state for the budget

			// Two identical queries while the only slot is taken: with a result
			// cache the second waits on the first's flight, without it both queue.
			idle()
			release, err := svc.adm.acquire(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			q := query("d1", e1, 9, AlgoDFS)
			done := make(chan error, 2)
			for i := 1; i <= 2; i++ {
				go func() { _, err := svc.Mine(context.Background(), q); done <- err }()
				await(t, "the query to wait", func() bool {
					return svc.Metrics().Admission.Queued+int(svc.results.Stats().SharedIn) == i
				})
			}
			svc.adm.done(0)
			release()
			for i := 0; i < 2; i++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			} // one of them rebuilt b1: d0 loses its state for the budget

			mine(query("d0", e2, 5, AlgoDSeq))                          // FST LRU evicts d0/e1, stateless
			mine(query("d1", e2, 5, AlgoDSeq))                          // FST LRU evicts d2/e1 with its state
			if _, err := svc.RegisterDataset("d1", d1new); err != nil { // drops d1/e1 and its state
				t.Fatal(err)
			}
			mine(query("d1", e1, 5, AlgoDFS)) // builds b1new
			idle()

			type series = map[string]int64
			want := struct {
				fst, results, admission map[string]float64
				series                  series
			}{
				fst:     map[string]float64{"size": 2, "capacity": 3, "hits": 2, "shared_inflight": 0, "misses": 6, "evictions": 2},
				results: map[string]float64{"size": 2, "capacity": 2, "hits": 1, "shared_inflight": 1, "misses": 8, "evictions": 5},
				admission: map[string]float64{"max_inflight": 1, "queue_depth": 4, "queued": 0, "queued_max": 1, "admitted": 9,
					"shed_queue_full": 0, "shed_tenant_quota": 0},
				series: series{"seqmine_result_cache_hits_total": 2, "seqmine_result_cache_misses_total": 8,
					"seqmine_prepared_entries": 1, "seqmine_prepared_bytes": b1new, "seqmine_prepared_hits_total": 1,
					"seqmine_prepared_builds_total": 5, "seqmine_prepared_evictions_total": 3},
			}
			if resultCache == 0 { // every repeat mines: more FST and prepared hits, more admissions
				want.fst["hits"] = 4
				for k := range want.results {
					want.results[k] = 0
				}
				want.admission["queued_max"], want.admission["admitted"] = 2, 11
				want.series["seqmine_prepared_hits_total"] = 3
				delete(want.series, "seqmine_result_cache_hits_total")
				delete(want.series, "seqmine_result_cache_misses_total")
			}

			// The LRUs keep their own counts; the JSON of GET /metrics carries
			// the admission block and the registry.
			asMap := func(v any) map[string]float64 {
				b, err := json.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				var m map[string]float64
				if err := json.Unmarshal(b, &m); err != nil {
					t.Fatal(err)
				}
				return m
			}
			snap := svc.Metrics()
			for name, c := range map[string][2]map[string]float64{
				"compiled-pattern LRU": {asMap(svc.cache.entries.Stats()), want.fst},
				"result LRU":           {asMap(svc.results.Stats()), want.results},
				"admission":            {asMap(snap.Admission), want.admission},
			} {
				if !reflect.DeepEqual(c[0], c[1]) {
					t.Errorf("%s = %v\n want %v", name, c[0], c[1])
				}
			}
			gotSeries := series{}
			for _, e := range snap.Registry {
				if strings.HasPrefix(e.Name, "seqmine_result_cache_") || strings.HasPrefix(e.Name, "seqmine_prepared_") {
					gotSeries[e.Name] = e.Value
				}
			}
			if !reflect.DeepEqual(gotSeries, want.series) {
				t.Errorf("series = %v\n want %v", gotSeries, want.series)
			}
			if st := svc.cache.account(); st.entries != 1 || st.bytes != b1new {
				t.Errorf("prepared sums = %d entries, %d bytes; want 1, %d", st.entries, st.bytes, b1new)
			}
			if got, _ := Series(snap.Registry, "seqmine_queries_total"); got != 10 {
				t.Errorf("queries = %d, want 10", got)
			}
		})
	}
}
