package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"seqmine/internal/fst"
	"seqmine/internal/miner"
	"seqmine/internal/obs"
	"seqmine/internal/paperex"
	"seqmine/internal/plan"
	"seqmine/internal/seqdb"
)

// slowToPrepare is a database and an expression whose prepared state takes
// hundreds of milliseconds to build on one worker — 200 states, four-word
// rows, 40,000 Reach passes — and little to mine at slowSigma.
func slowToPrepare() (*seqdb.Database, string) {
	d, seqs := paperex.RandomDatabase(rand.New(rand.NewSource(11)), 40000, 10)
	return &seqdb.Database{Dict: d, Sequences: seqs}, "[.*(.)]{1,100}.*"
}

const slowSigma = 10000

// await polls cond, which must come true well within a second.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// building reports whether a prepared-state build of key is in flight.
func (c *fstCache) building(key cacheKey) bool {
	e, ok := c.entries.Lookup(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	return ok && e.prepFlight != nil
}

func dfsQuery(dataset, expr string, sigma int64, workers int) Query {
	return Query{Dataset: dataset, Expression: expr, Sigma: sigma,
		Options: ExecOptions{Plan: plan.Plan{Algorithm: AlgoDFS, Workers: workers}}}
}

// cancelledPrepare (TestCancelledSequentialQueryReleasesPromptly/dfs-prepare):
// a dfs query cancelled 10 ms into a build of at least 200 ms gives its slot
// back promptly and leaves no state, no flight and no goroutine; the next
// query builds the state and answers correctly, the one after at another sigma
// mines what that one built.
func cancelledPrepare(t *testing.T) {
	db, expr := slowToPrepare()
	f := fst.MustCompile(expr, db.Dict)
	c := newFSTCache(4, nil)
	key := cacheKey{dataset: "slow", generation: 1, expression: expr}
	if _, _, err := c.get(context.Background(), key, func() (*fst.FST, error) { return f, nil }); err != nil {
		t.Fatal(err)
	}
	source := func(ctx context.Context, workers int) (*miner.Prepared, bool, error) {
		return c.prepared(ctx, key, f, db.Sequences, workers)
	}
	opts := ExecOptions{Plan: plan.Plan{Algorithm: AlgoDFS, Workers: 1}}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan time.Time, 1)
	start := time.Now()
	time.AfterFunc(10*time.Millisecond, cancel)
	_, _, _, err := execute(ctx, f, db, slowSigma, opts, func() { done <- time.Now() }, source)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query returned %v, want context.Canceled", err)
	}
	held := (<-done).Sub(start)
	if st := c.stats(); st.PreparedEntries != 0 || st.PreparedBytes != 0 || st.PreparedBuilds != 0 || c.building(key) {
		t.Errorf("a cancelled build left %+v, building %v", st, c.building(key))
	}
	waitForGoroutines(t, before)

	want := miner.MineDFS(f, miner.Weighted(db.Sequences), slowSigma, miner.DFSOptions{})
	patterns, _, stats, err := execute(context.Background(), f, db, slowSigma, opts, nil, source)
	if err != nil || len(want) == 0 || !reflect.DeepEqual(patterns, want) {
		t.Fatalf("query after the cancelled one: err %v, %d patterns, want %d", err, len(patterns), len(want))
	}
	if stats.Prepared != PreparedBuilt || stats.PrepareMS <= 0 {
		t.Errorf("query after the cancelled one: exec = %+v, want a built state", stats)
	}
	t.Logf("prepares for %.0f ms, cancelled after 10 ms: resources held for %v", stats.PrepareMS, held)
	if stats.PrepareMS < 200 {
		t.Errorf("the state builds in %.0f ms; the test needs at least 200", stats.PrepareMS)
	}
	if held > 10*time.Millisecond+time.Duration(stats.PrepareMS/3*float64(time.Millisecond)) {
		t.Errorf("cancelled after 10 ms, the query held its resources for %v of a %.0f ms build", held, stats.PrepareMS)
	}
	_, _, stats, err = execute(context.Background(), f, db, 2*slowSigma, opts, nil, source)
	if err != nil || stats.Prepared != PreparedHit || stats.PrepareMS != 0 {
		t.Errorf("query at another sigma: err %v, exec = %+v, want a hit", err, stats)
	}
	if st := c.stats(); st.PreparedEntries != 1 || st.PreparedBuilds != 1 || st.PreparedHits != 1 {
		t.Errorf("after build and hit: %+v", st)
	}
}

// TestWaiterLeavesOnItsOwnDeadline: behind an owner that is still at work, a
// waiter with a 10 ms deadline returns its own error while the owner works on,
// in each of the three caches; the owner's outcome is not disturbed.
func TestWaiterLeavesOnItsOwnDeadline(t *testing.T) {
	short := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), 10*time.Millisecond)
	}
	t.Run("compiled pattern", func(t *testing.T) {
		f := testFST(t)
		c := newFSTCache(4, nil)
		release, owner := make(chan struct{}), make(chan error, 1)
		go func() {
			_, _, err := c.get(context.Background(), key("p"), func() (*fst.FST, error) { <-release; return f, nil })
			owner <- err
		}()
		await(t, "the compile to start", func() bool { return c.stats().Misses == 1 })
		ctx, cancel := short()
		defer cancel()
		if _, _, err := c.get(ctx, key("p"), nil); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("waiter returned %v, want its own deadline", err)
		}
		close(release)
		if err := <-owner; err != nil {
			t.Errorf("owner: %v", err)
		}
		if got, hit, err := c.get(context.Background(), key("p"), nil); got != f || !hit || err != nil {
			t.Errorf("after the owner finished: %v, hit %v, err %v", got, hit, err)
		}
	})
	t.Run("result", func(t *testing.T) {
		c := newResultCache(4)
		release, owner := make(chan struct{}), make(chan error, 1)
		go func() {
			_, _, err := c.Get(context.Background(), rkey("a"), func() (cachedResult, error) { <-release; return cachedResult{}, nil })
			owner <- err
		}()
		await(t, "the owner to mine", func() bool { return c.Stats().Misses == 1 })
		ctx, cancel := short()
		defer cancel()
		if _, shared, err := c.Get(ctx, rkey("a"), nil); !errors.Is(err, context.DeadlineExceeded) || !shared {
			t.Errorf("waiter returned shared %v, err %v, want its own deadline", shared, err)
		}
		close(release)
		if err := <-owner; err != nil {
			t.Errorf("owner: %v", err)
		}
		if _, hit, err := c.Get(context.Background(), rkey("a"), nil); !hit || err != nil {
			t.Errorf("after the owner resolved: hit %v, err %v", hit, err)
		}
	})
	t.Run("prepared state", func(t *testing.T) {
		db, expr := slowToPrepare()
		f := fst.MustCompile(expr, db.Dict)
		c := newFSTCache(4, nil)
		k := key(expr)
		c.get(context.Background(), k, func() (*fst.FST, error) { return f, nil })
		owner := make(chan *miner.Prepared, 1)
		go func() {
			p, _, _ := c.prepared(context.Background(), k, f, db.Sequences, 1)
			owner <- p
		}()
		await(t, "the build to start", func() bool { return c.building(k) })
		ctx, cancel := short()
		defer cancel()
		_, _, err := c.prepared(ctx, k, f, db.Sequences, 1)
		if !errors.Is(err, context.DeadlineExceeded) || !c.building(k) {
			t.Errorf("waiter returned %v with the build in flight: %v; want its own deadline during the build", err, c.building(k))
		}
		if p := <-owner; p == nil || c.stats().PreparedEntries != 1 {
			t.Errorf("owner built %v, cache %+v", p, c.stats())
		}
	})
}

// TestWaiterOutlivesCancelledOwner: an owner whose own context ends fails
// alone. A waiter with a live context takes the flight over and gets the right
// answer, and neither a half-built state nor the owner's error is stored.
func TestWaiterOutlivesCancelledOwner(t *testing.T) {
	db, expr := slowToPrepare()
	f := fst.MustCompile(expr, db.Dict)
	want := miner.MineDFS(f, miner.Weighted(db.Sequences), slowSigma, miner.DFSOptions{})

	t.Run("prepared state", func(t *testing.T) {
		c := newFSTCache(4, nil)
		k := key(expr)
		c.get(context.Background(), k, func() (*fst.FST, error) { return f, nil })
		ownerCtx, cancel := context.WithCancel(context.Background())
		owner := make(chan error, 1)
		go func() {
			_, _, err := c.prepared(ownerCtx, k, f, db.Sequences, 1)
			owner <- err
		}()
		await(t, "the build to start", func() bool { return c.building(k) })
		type outcome struct {
			p     *miner.Prepared
			built bool
			err   error
		}
		waiter := make(chan outcome, 1)
		go func() {
			p, built, err := c.prepared(context.Background(), k, f, db.Sequences, 2)
			waiter <- outcome{p, built, err}
		}()
		time.Sleep(20 * time.Millisecond) // the waiter is, in all likelihood, waiting
		cancel()
		if err := <-owner; !errors.Is(err, context.Canceled) {
			t.Fatalf("owner returned %v, want context.Canceled", err)
		}
		w := <-waiter
		if w.err != nil || w.p == nil || !w.built {
			t.Fatalf("waiter: state %v, built %v, err %v; want it to have built the state", w.p, w.built, w.err)
		}
		if got := w.p.Mine(context.Background(), slowSigma, 2, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("waiter's state mines %d patterns, want %d", len(got), len(want))
		}
		if st := c.stats(); st.PreparedBuilds != 1 || st.PreparedEntries != 1 || c.building(k) {
			t.Errorf("cache after the take-over: %+v", st)
		}
	})

	t.Run("result through the service", func(t *testing.T) {
		svc := New(Config{ResultCacheSize: 8})
		if _, err := svc.RegisterDataset("slow", db); err != nil {
			t.Fatal(err)
		}
		q := dfsQuery("slow", expr, slowSigma, 1)
		ownerCtx, cancel := context.WithCancel(context.Background())
		owner := make(chan error, 1)
		go func() {
			_, err := svc.Mine(ownerCtx, q)
			owner <- err
		}()
		await(t, "the owner to mine", func() bool { return svc.results.Stats().Misses == 1 })
		waiter := make(chan *Response, 1)
		go func() {
			resp, err := svc.Mine(context.Background(), q)
			if err != nil {
				t.Errorf("waiter: %v", err)
			}
			waiter <- resp
		}()
		await(t, "the waiter to join the flight", func() bool { return svc.results.Stats().SharedIn == 1 })
		cancel()
		if err := <-owner; !errors.Is(err, context.Canceled) {
			t.Fatalf("owner returned %v, want context.Canceled", err)
		}
		if resp := <-waiter; resp == nil || !reflect.DeepEqual(resp.Patterns, want) || resp.Metrics.ResultCacheHit {
			t.Errorf("waiter's answer: %+v, want %d patterns mined by itself", resp, len(want))
		}
		if resp, err := svc.Mine(context.Background(), q); err != nil || !resp.Metrics.ResultCacheHit || resp.Metrics.Exec.Prepared != PreparedNone {
			t.Errorf("repeat of the waiter's query: %+v, err %v, want a result-cache hit that reused no state", resp, err)
		}
		await(t, "the owner's slot to come back", func() bool { return svc.Metrics().ActiveQueries == 0 })
	})
}

// TestPreparedBudget fills a lowered budget with the states of small synthetic
// datasets: prepared_bytes never exceeds the budget at any scrape and agrees
// with its gauge, the least recently used entry loses its state but keeps its
// FST and answers by rebuilding, a state larger than the budget serves its
// queries without being retained, and a generation bump or a removal drops the
// state with the entry — the next answer comes from the new data.
func TestPreparedBudget(t *testing.T) {
	const expr = "[.*(.)]{1,3}.*"
	small := func(seed int64, n int) *seqdb.Database {
		d, seqs := paperex.RandomDatabase(rand.New(rand.NewSource(seed)), n, 8)
		return &seqdb.Database{Dict: d, Sequences: seqs}
	}
	reg := obs.NewRegistry()
	svc := New(Config{Obs: reg})
	dbs := map[string]*seqdb.Database{}
	for i := 0; i < 3; i++ {
		dbs[fmt.Sprintf("ds%d", i)] = small(int64(i), 300)
	}
	dbs["big"] = small(9, 3000)
	for name, db := range dbs {
		if _, err := svc.RegisterDataset(name, db); err != nil {
			t.Fatal(err)
		}
	}
	one := miner.Prepare(context.Background(), fst.MustCompile(expr, dbs["ds0"].Dict), dbs["ds0"].Sequences, 1).Bytes()
	svc.cache.budget = 5 * one / 2 // two states of the small datasets, not three, not the big one's

	scrape := func(entries int, builds, hits, evictions uint64) {
		t.Helper()
		st := svc.Metrics().Cache
		if st.PreparedBytes > svc.cache.budget || st.PreparedBytes < int64(entries)*one/2 {
			t.Errorf("prepared_bytes = %d with %d entries, budget %d", st.PreparedBytes, entries, svc.cache.budget)
		}
		if st.PreparedEntries != entries || st.PreparedBuilds != builds || st.PreparedHits != hits || st.PreparedEvictions != evictions {
			t.Errorf("cache = %+v, want %d entries, %d builds, %d hits, %d evictions", st, entries, builds, hits, evictions)
		}
		mirror := map[string]int64{}
		for _, e := range reg.Snapshot() {
			mirror[e.Name] = e.Value
		}
		for name, want := range map[string]int64{
			"seqmine_prepared_entries": int64(st.PreparedEntries), "seqmine_prepared_bytes": st.PreparedBytes,
			"seqmine_prepared_builds_total": int64(st.PreparedBuilds), "seqmine_prepared_hits_total": int64(st.PreparedHits),
			"seqmine_prepared_evictions_total": int64(st.PreparedEvictions),
		} {
			if got, ok := mirror[name]; !ok || got != want {
				t.Errorf("%s = %v (registered %v), want %v", name, got, ok, want)
			}
		}
	}
	mine := func(name string, sigma int64, prepared string, fstHit bool) {
		t.Helper()
		resp, err := svc.Mine(context.Background(), dfsQuery(name, expr, sigma, 2))
		if err != nil {
			t.Fatal(err)
		}
		db := dbs[name]
		want := miner.MineDFS(fst.MustCompile(expr, db.Dict), miner.Weighted(db.Sequences), sigma, miner.DFSOptions{})
		if len(want) == 0 || !reflect.DeepEqual(resp.Patterns, want) {
			t.Errorf("%s at sigma %d: %d patterns, want %d", name, sigma, len(resp.Patterns), len(want))
		}
		if m := resp.Metrics; m.Exec.Prepared != prepared || m.CacheHit != fstHit || (m.Exec.PrepareMS > 0) != (prepared == PreparedBuilt) {
			t.Errorf("%s at sigma %d: prepared %q (%.3f ms), fst hit %v; want %q, %v", name, sigma, m.Exec.Prepared, m.Exec.PrepareMS, m.CacheHit, prepared, fstHit)
		}
	}

	mine("ds0", 5, PreparedBuilt, false)
	mine("ds1", 5, PreparedBuilt, false)
	scrape(2, 2, 0, 0)
	mine("ds0", 9, PreparedHit, true)
	scrape(2, 2, 1, 0)
	mine("ds2", 5, PreparedBuilt, false) // ds1 is the least recently used
	scrape(2, 3, 1, 1)
	mine("ds1", 9, PreparedBuilt, true) // its FST stayed; rebuilding takes ds0's state
	scrape(2, 4, 1, 2)
	mine("big", 50, PreparedBuilt, false) // over the budget on its own
	mine("big", 90, PreparedBuilt, true)
	scrape(2, 6, 1, 2)
	if st := svc.Metrics().Cache; st.Size != 4 {
		t.Errorf("compiled-pattern cache holds %d entries, want all 4 FSTs", st.Size)
	}

	dbs["ds1"] = small(7, 300) // a generation bump: the state goes with the FST entry
	if _, err := svc.RegisterDataset("ds1", dbs["ds1"]); err != nil {
		t.Fatal(err)
	}
	scrape(1, 6, 1, 2)
	mine("ds1", 5, PreparedBuilt, false)
	scrape(2, 7, 1, 2)
	if !svc.RemoveDataset("ds2") {
		t.Fatal("RemoveDataset(ds2) = false")
	}
	scrape(1, 7, 1, 2)

	// A query whose entry left the cache between its FST lookup and its build
	// (ds2's, just now) still gets a state; the cache keeps nothing of it.
	gone := cacheKey{dataset: "ds2", generation: 3, expression: expr}
	p, built, err := svc.cache.prepared(context.Background(), gone, fst.MustCompile(expr, dbs["ds2"].Dict), dbs["ds2"].Sequences, 2)
	if p == nil || !built || err != nil {
		t.Errorf("state for an entry that is gone: %v, built %v, err %v", p, built, err)
	}
	scrape(1, 8, 1, 2)
}
