package service_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seqmine/internal/fst"
	"seqmine/internal/miner"
	"seqmine/internal/paperex"
	"seqmine/internal/plan"
	"seqmine/internal/seqdb"
	"seqmine/internal/service"
)

// exampleDB builds the running example of the paper as a seqdb.Database.
func exampleDB(t *testing.T) *seqdb.Database {
	t.Helper()
	db, err := seqdb.Build(paperex.RawDB(), seqdb.Hierarchy{"a1": {"A"}, "a2": {"A"}})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func newTestService(t *testing.T, cfg service.Config) (*service.Service, *seqdb.Database) {
	t.Helper()
	svc := service.New(cfg)
	db := exampleDB(t)
	if _, err := svc.RegisterDataset("ex", db); err != nil {
		t.Fatal(err)
	}
	return svc, db
}

func mineViaService(t *testing.T, svc *service.Service, algo service.Algorithm, sigma int64) map[string]int64 {
	t.Helper()
	opts := service.DefaultExecOptions()
	opts.Algorithm = algo
	resp, err := svc.Mine(context.Background(), service.Query{
		Dataset:    "ex",
		Expression: paperex.PatternExpression,
		Sigma:      sigma,
		Options:    opts,
	})
	if err != nil {
		t.Fatalf("Mine(%s, sigma=%d): %v", algo, sigma, err)
	}
	return miner.PatternsToMap(resp.Dict, resp.Patterns)
}

// TestWorkersMatchSequential is the exactness property of the executor's
// sequential backend: dfs on 1, 2 and 4 workers must return the
// single-threaded miner's patterns in the single-threaded miner's order, and
// say how the query was split.
func TestWorkersMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d, seqs := paperex.RandomDatabase(rng, 300, 9)
	fixtures := []struct {
		name     string
		db       *seqdb.Database
		patterns []string
		sigmas   []int64
	}{
		{"ex", exampleDB(t), []string{paperex.PatternExpression}, []int64{1, 2, 3}},
		{"rnd", &seqdb.Database{Dict: d, Sequences: seqs},
			[]string{paperex.PatternExpression, "[.*(.)]{1,3}.*", ".*(A^)[.{0,1}(.)]{1,2}.*"}, []int64{2, 5, 20}},
	}
	svc := service.New(service.Config{})
	longTasks := 0 // dfs queries reporting a pattern of three items or more
	for _, fx := range fixtures {
		if _, err := svc.RegisterDataset(fx.name, fx.db); err != nil {
			t.Fatal(err)
		}
		for _, pat := range fx.patterns {
			f := fst.MustCompile(pat, fx.db.Dict)
			for _, sigma := range fx.sigmas {
				want := miner.MineDFS(f, miner.Weighted(fx.db.Sequences), sigma, miner.DFSOptions{})
				for _, workers := range []int{1, 2, 4} {
					opts := service.DefaultExecOptions()
					opts.Algorithm = service.AlgoDFS
					opts.Workers = workers
					resp, err := svc.Mine(context.Background(), service.Query{
						Dataset: fx.name, Expression: pat, Sigma: sigma, Options: opts,
					})
					if err != nil {
						t.Fatalf("%s %q sigma %d workers %d: %v", fx.name, pat, sigma, workers, err)
					}
					if len(want) == 0 && len(resp.Patterns) == 0 {
						continue
					}
					if !reflect.DeepEqual(resp.Patterns, want) {
						t.Errorf("%s %q sigma %d workers %d:\n got %v\nwant %v", fx.name, pat, sigma, workers, resp.Patterns, want)
					}
					exec := resp.Metrics.Exec
					if exec.Shards != 1 || exec.Candidates != 0 || exec.Workers != workers {
						t.Errorf("workers %d: exec = %+v", workers, exec)
					}
					// Through a Service dfs mines a prepared state by tasks on
					// any number of workers: its deepest kept prefixes, of at
					// most three items, so there are some whenever a pattern of
					// three or more items is reported.
					long := slices.ContainsFunc(want, func(p miner.Pattern) bool { return len(p.Items) >= 3 })
					if exec.LargestTaskShare > 1 || (exec.Tasks > 0) != (exec.LargestTaskShare > 0) || long && exec.Tasks == 0 {
						t.Errorf("workers %d: exec = %+v, want a share in (0, 1] with tasks, and tasks when a pattern has three items or more (%v)",
							workers, exec, long)
					}
					if long {
						longTasks++
					}
				}
			}
		}
	}
	if longTasks == 0 {
		t.Error("no dfs query reported a pattern of three items or more; the task check is vacuous")
	}
}

// TestDistributedBackends runs both BSP backends through the service on the
// running example and checks against the paper's expected result.
func TestDistributedBackends(t *testing.T) {
	svc, _ := newTestService(t, service.Config{})
	want := paperex.ExpectedFrequent()
	for _, algo := range []service.Algorithm{service.AlgoDSeq, service.AlgoDCand} {
		got := mineViaService(t, svc, algo, paperex.Sigma)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %v, want %v", algo, got, want)
		}
	}
}

func TestCacheHitMetrics(t *testing.T) {
	svc, _ := newTestService(t, service.Config{})
	q := service.Query{Dataset: "ex", Expression: paperex.PatternExpression, Sigma: paperex.Sigma}
	first, err := svc.Mine(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Metrics.CacheHit {
		t.Error("first query must not be a cache hit")
	}
	second, err := svc.Mine(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Metrics.CacheHit {
		t.Error("repeated identical query must hit the compiled-pattern cache")
	}
	if n, _ := service.Series(svc.Metrics().Registry, "seqmine_queries_total", "algorithm", "dseq"); n != 2 {
		t.Errorf("seqmine_queries_total{algorithm=dseq} = %d, want 2", n)
	}
}

// TestConcurrentQueries exercises the service from many goroutines (run
// under -race): a mix of algorithms and worker counts against the same
// dataset, every result checked against the paper's expected result, and the
// compiled-pattern cache must compile each distinct expression exactly once.
func TestConcurrentQueries(t *testing.T) {
	// The queue is sized for the whole burst: this test is about FST-cache
	// singleflight and cross-algorithm agreement, not load shedding (the
	// default queue of 4×MaxConcurrent would shed part of it).
	svc, _ := newTestService(t, service.Config{MaxConcurrent: 4, QueueDepth: 24})
	want := paperex.ExpectedFrequent()

	algos := []service.Algorithm{service.AlgoDFS, service.AlgoDSeq, service.AlgoDCand}
	const n = 24
	var wg sync.WaitGroup
	errs := make(chan error, n)
	var compiled atomic.Int64 // responses that compiled their FST
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := service.DefaultExecOptions()
			opts.Algorithm = algos[i%len(algos)]
			opts.Workers = 1 + i%4
			resp, err := svc.Mine(context.Background(), service.Query{
				Dataset:    "ex",
				Expression: paperex.PatternExpression,
				Sigma:      paperex.Sigma,
				Options:    opts,
			})
			if err != nil {
				errs <- err
				return
			}
			if got := miner.PatternsToMap(resp.Dict, resp.Patterns); !reflect.DeepEqual(got, want) {
				errs <- fmt.Errorf("query %d (%s): got %v, want %v", i, opts.Algorithm, got, want)
			}
			if !resp.Metrics.CacheHit {
				compiled.Add(1)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := compiled.Load(); got != 1 {
		t.Errorf("distinct expression compiled %d times, want 1 (singleflight + cache)", got)
	}
	if got, _ := service.Series(svc.Metrics().Registry, "seqmine_queries_total"); got != n {
		t.Errorf("queries = %d, want %d", got, n)
	}
}

func TestQueryDeadline(t *testing.T) {
	svc, _ := newTestService(t, service.Config{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, algo := range []service.Algorithm{service.AlgoDFS, service.AlgoDSeq} {
		opts := service.DefaultExecOptions()
		opts.Algorithm = algo
		_, err := svc.Mine(ctx, service.Query{
			Dataset: "ex", Expression: paperex.PatternExpression, Sigma: 2, Options: opts,
		})
		if err != context.DeadlineExceeded {
			t.Errorf("%s with expired deadline: err = %v, want DeadlineExceeded", algo, err)
		}
	}
}

func TestQueryValidation(t *testing.T) {
	svc, _ := newTestService(t, service.Config{})
	cases := []service.Query{
		{Dataset: "ex", Expression: "", Sigma: 2},
		{Dataset: "ex", Expression: "(.)", Sigma: 0},
		{Dataset: "nope", Expression: "(.)", Sigma: 2},
		{Dataset: "ex", Expression: "(((", Sigma: 2},
	}
	for _, q := range cases {
		if _, err := svc.Mine(context.Background(), q); err == nil {
			t.Errorf("Mine(%+v) should fail", q)
		}
	}
	if got, _ := service.Series(svc.Metrics().Registry, "seqmine_query_errors_total"); got != int64(len(cases)) {
		t.Errorf("error counter = %d, want %d", got, len(cases))
	}
}

// TestDatasetReplacement replaces a dataset under the same name and checks
// that the compiled-pattern cache does not serve the old generation's FST.
func TestDatasetReplacement(t *testing.T) {
	svc, _ := newTestService(t, service.Config{})
	q := service.Query{Dataset: "ex", Expression: paperex.PatternExpression, Sigma: 1}
	if _, err := svc.Mine(context.Background(), q); err != nil {
		t.Fatal(err)
	}

	// Replace "ex" with a smaller database: same name, new generation.
	small, err := seqdb.Build([][]string{{"a1", "b"}, {"a1", "b"}}, seqdb.Hierarchy{"a1": {"A"}, "a2": {"A"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterDataset("ex", small); err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Mine(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Metrics.CacheHit {
		t.Error("query after dataset replacement must recompile (new generation)")
	}
	for _, p := range resp.Patterns {
		if p.Freq > 2 {
			t.Errorf("pattern %q freq %d impossible in 2-sequence database (stale data?)",
				resp.Dict.DecodeString(p.Items), p.Freq)
		}
	}
}

func TestRegistryLifecycle(t *testing.T) {
	reg := service.NewRegistry()
	db := exampleDB(t)
	gen1, err := reg.RegisterOwned("a", db, "")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := reg.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if infos := reg.List(); len(infos) != 1 || infos[0].ActiveQueries != 1 {
		t.Errorf("List = %+v, want one dataset with 1 active query", infos)
	}
	// Replacement bumps the generation; the old lease stays valid.
	gen2, err := reg.RegisterOwned("a", db, "")
	if err != nil {
		t.Fatal(err)
	}
	if gen2 <= gen1 {
		t.Errorf("generation must increase: %d then %d", gen1, gen2)
	}
	if ds.DB == nil || ds.Gen != gen1 {
		t.Error("existing lease must keep its generation")
	}
	ds.Release()
	ds.Release() // double release is a no-op
	if !reg.Unregister("a") {
		t.Error("Unregister should report existing dataset")
	}
	if reg.Unregister("a") {
		t.Error("second Unregister should report missing dataset")
	}
	if _, err := reg.Acquire("a"); err == nil {
		t.Error("Acquire after Unregister should fail")
	}
	if _, err := reg.RegisterOwned("", db, ""); err == nil {
		t.Error("empty dataset name should be rejected")
	}
	if _, err := reg.RegisterOwned("x", nil, ""); err == nil {
		t.Error("nil database should be rejected")
	}
}

// TestSpillThresholdThroughService exercises the spill path end-to-end
// through the service layer: a query-level spill threshold (and the service
// default) must produce the same patterns as the in-memory run, with spill
// metrics reported, for every distributed backend.
func TestSpillThresholdThroughService(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d, seqs := paperex.RandomDatabase(rng, 300, 9)
	db := &seqdb.Database{Dict: d, Sequences: seqs}
	svc := service.New(service.Config{})
	if _, err := svc.RegisterDataset("rnd", db); err != nil {
		t.Fatal(err)
	}
	const pat = "[.*(.)]{1,3}.*"
	const sigma = 10
	for _, algo := range []service.Algorithm{service.AlgoDSeq, service.AlgoDCand} {
		base := service.DefaultExecOptions()
		base.Algorithm = algo
		ref, err := svc.Mine(context.Background(), service.Query{Dataset: "rnd", Expression: pat, Sigma: sigma, Options: base})
		if err != nil {
			t.Fatalf("%s reference: %v", algo, err)
		}
		if ref.Metrics.MapReduce.SpilledBytes != 0 {
			t.Fatalf("%s reference run spilled unexpectedly", algo)
		}

		spilling := base
		spilling.SpillThreshold = 512
		spilling.SpillTmpDir = t.TempDir()
		got, err := svc.Mine(context.Background(), service.Query{Dataset: "rnd", Expression: pat, Sigma: sigma, Options: spilling})
		if err != nil {
			t.Fatalf("%s spilling: %v", algo, err)
		}
		if !reflect.DeepEqual(got.Patterns, ref.Patterns) {
			t.Errorf("%s: spilling run differs from in-memory run", algo)
		}
		if got.Metrics.MapReduce.SpilledBytes == 0 || got.Metrics.MapReduce.SpillCount == 0 {
			t.Errorf("%s: expected spill metrics, got %+v", algo, got.Metrics.MapReduce)
		}
	}
}

// TestServiceDefaultKnobs checks the wiring of the daemon defaults: the
// service's Config.Knobs reach the engine for queries that set nothing, and
// a negative per-query value opts back out. (The precedence rule itself is
// table-tested once, on plan.Knobs.Merge.)
func TestServiceDefaultKnobs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d, seqs := paperex.RandomDatabase(rng, 200, 9)
	db := &seqdb.Database{Dict: d, Sequences: seqs}
	var defaults plan.Knobs
	defaults.SpillThreshold = 512
	defaults.SendBufferBytes = 128
	defaults.SpillTmpDir = t.TempDir()
	svc := service.New(service.Config{Knobs: defaults})
	if _, err := svc.RegisterDataset("rnd", db); err != nil {
		t.Fatal(err)
	}
	q := service.Query{Dataset: "rnd", Expression: "[.*(.)]{1,3}.*", Sigma: 10, Options: service.DefaultExecOptions()}
	resp, err := svc.Mine(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if m := resp.Metrics.MapReduce; m.SpilledBytes == 0 || m.StreamedBatches == 0 {
		t.Errorf("expected the service defaults to trigger spilling and streaming, got %+v", m)
	}

	q.Options.SpillThreshold = -1 // explicit opt-outs
	q.Options.SendBufferBytes = -1
	resp, err = svc.Mine(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if m := resp.Metrics.MapReduce; m.SpilledBytes != 0 || m.StreamedBatches != 0 {
		t.Errorf("negative query knobs must disable the service defaults, got %+v", m)
	}
}

// TestStreamingThroughService exercises the streaming pipelined shuffle
// end-to-end through the service layer: a query-level send buffer (with a
// spill threshold) must produce byte-identical patterns for every
// distributed backend, with streaming metrics reported per query and the
// engine's spill segments and send-buffer flushes counted in the service's
// registry.
func TestStreamingThroughService(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d, seqs := paperex.RandomDatabase(rng, 300, 9)
	db := &seqdb.Database{Dict: d, Sequences: seqs}
	svc := service.New(service.Config{})
	if _, err := svc.RegisterDataset("rnd", db); err != nil {
		t.Fatal(err)
	}
	const pat = "[.*(.)]{1,3}.*"
	const sigma = 10
	var segments int64 // spill segments the responses report
	for _, algo := range []service.Algorithm{service.AlgoDSeq, service.AlgoDCand} {
		base := service.DefaultExecOptions()
		base.Algorithm = algo
		ref, err := svc.Mine(context.Background(), service.Query{Dataset: "rnd", Expression: pat, Sigma: sigma, Options: base})
		if err != nil {
			t.Fatalf("%s reference: %v", algo, err)
		}
		if ref.Metrics.MapReduce.StreamedBatches != 0 {
			t.Fatalf("%s reference run streamed unexpectedly", algo)
		}

		streaming := base
		streaming.SendBufferBytes = 256
		streaming.SpillThreshold = 512
		streaming.SpillTmpDir = t.TempDir()
		got, err := svc.Mine(context.Background(), service.Query{Dataset: "rnd", Expression: pat, Sigma: sigma, Options: streaming})
		if err != nil {
			t.Fatalf("%s streaming: %v", algo, err)
		}
		if !reflect.DeepEqual(got.Patterns, ref.Patterns) {
			t.Errorf("%s: streaming run differs from in-memory run", algo)
		}
		if got.Metrics.MapReduce.StreamedBatches == 0 {
			t.Errorf("%s: expected streaming metrics, got %+v", algo, got.Metrics.MapReduce)
		}
		segments += ref.Metrics.MapReduce.SpillCount + got.Metrics.MapReduce.SpillCount
	}

	// The service's registry saw every segment the responses report, and
	// the send buffers' flushes.
	reg := svc.Metrics().Registry
	if n, _ := service.Series(reg, "seqmine_spill_segment_bytes"); segments == 0 || n != segments {
		t.Errorf("seqmine_spill_segment_bytes counts %d segments, the responses %d", n, segments)
	}
	if n, _ := service.Series(reg, "seqmine_send_buffer_occupancy_bytes"); n == 0 {
		t.Error("seqmine_send_buffer_occupancy_bytes observed no flush")
	}
}
