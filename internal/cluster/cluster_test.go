package cluster_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"seqmine/internal/cluster"
	"seqmine/internal/datagen"
	"seqmine/internal/dcand"
	"seqmine/internal/dseq"
	"seqmine/internal/fst"
	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
	"seqmine/internal/paperex"
	"seqmine/internal/plan"
	"seqmine/internal/seqdb"
	"seqmine/internal/transport"
)

// startWorkers brings up n workers, each with its own shuffle node and
// control HTTP server, and returns their control URLs.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	return startWrappedWorkers(t, n, func(h http.Handler) http.Handler { return h })
}

// startWrappedWorkers is startWorkers with every worker's control API served
// through wrap.
func startWrappedWorkers(t *testing.T, n int, wrap func(http.Handler) http.Handler) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		node, err := transport.NewNode("127.0.0.1:0", transport.Config{})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		t.Cleanup(func() { node.Close() })
		srv := httptest.NewServer(wrap(cluster.NewWorker(node).Handler()))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

func paperDatabase(t *testing.T) *seqdb.Database {
	t.Helper()
	d := paperex.Dict()
	return &seqdb.Database{Dict: d, Sequences: paperex.DB(d)}
}

// inProcess is the single-process answer a cluster job must reproduce.
func inProcess(t *testing.T, algo plan.Algorithm, f *fst.FST, db *seqdb.Database, sigma int64) []miner.Pattern {
	t.Helper()
	var (
		want []miner.Pattern
		err  error
	)
	switch algo {
	case plan.AlgoDSeq:
		want, _, err = dseq.Mine(f, db.Sequences, sigma, dseq.DefaultOptions(), mapreduce.Config{}, nil)
	case plan.AlgoDCand:
		want, _, err = dcand.Mine(f, db.Sequences, sigma, dcand.DefaultOptions(), mapreduce.Config{}, nil)
	default:
		t.Fatalf("no in-process reference for %s", algo)
	}
	if err != nil {
		t.Fatalf("in-process %s: %v", algo, err)
	}
	return want
}

func TestCoordinatorMatchesInProcess(t *testing.T) {
	db := paperDatabase(t)
	f := fst.MustCompile(paperex.PatternExpression, db.Dict)
	coord := &cluster.Coordinator{Workers: startWorkers(t, 3)}

	t.Run("dcand", func(t *testing.T) {
		want := inProcess(t, plan.AlgoDCand, f, db, paperex.Sigma)
		res, err := coord.Mine(context.Background(), db, paperex.PatternExpression, paperex.Sigma, plan.Plan{Algorithm: plan.AlgoDCand})
		if err != nil {
			t.Fatalf("Mine: %v", err)
		}
		if got, wantM := miner.PatternsToMap(db.Dict, res.Patterns), miner.PatternsToMap(db.Dict, want); !reflect.DeepEqual(got, wantM) {
			t.Errorf("distributed D-CAND = %v, want %v", got, wantM)
		}
		// ShuffleBytes must be real traffic: everything written was read.
		if res.Metrics.ShuffleBytes <= 0 {
			t.Errorf("ShuffleBytes = %d, want > 0", res.Metrics.ShuffleBytes)
		}
		if !res.Metrics.RemoteShuffle {
			t.Error("metrics should be marked RemoteShuffle")
		}
		if res.Metrics.ShuffleBytes != res.WireBytesIn {
			t.Errorf("bytes written %d != bytes read %d", res.Metrics.ShuffleBytes, res.WireBytesIn)
		}
	})

	t.Run("dseq", func(t *testing.T) {
		want := inProcess(t, plan.AlgoDSeq, f, db, paperex.Sigma)
		res, err := coord.Mine(context.Background(), db, paperex.PatternExpression, paperex.Sigma, plan.Plan{Algorithm: plan.AlgoDSeq})
		if err != nil {
			t.Fatalf("Mine: %v", err)
		}
		if got, wantM := miner.PatternsToMap(db.Dict, res.Patterns), miner.PatternsToMap(db.Dict, want); !reflect.DeepEqual(got, wantM) {
			t.Errorf("distributed D-SEQ = %v, want %v", got, wantM)
		}
		if res.Metrics.ShuffleBytes != res.WireBytesIn {
			t.Errorf("bytes written %d != bytes read %d", res.Metrics.ShuffleBytes, res.WireBytesIn)
		}
	})
}

func TestCoordinatorRejectsBadAlgorithm(t *testing.T) {
	db := paperDatabase(t)
	coord := &cluster.Coordinator{Workers: startWorkers(t, 2)}
	if _, err := coord.Mine(context.Background(), db, paperex.PatternExpression, paperex.Sigma, plan.Plan{Algorithm: plan.AlgoNaive}); err == nil {
		t.Fatal("expected an error for a non-distributable algorithm")
	}
}

func TestCoordinatorNoWorkers(t *testing.T) {
	db := paperDatabase(t)
	coord := &cluster.Coordinator{}
	if _, err := coord.Mine(context.Background(), db, paperex.PatternExpression, paperex.Sigma, plan.Plan{Algorithm: plan.AlgoDCand}); err == nil {
		t.Fatal("expected an error with no workers")
	}
}

// TestCoordinatorManyWorkersRandomDB cross-checks the distributed engines
// against the sequential miner on a larger random database with 4 workers.
func TestCoordinatorManyWorkersRandomDB(t *testing.T) {
	raw, hierarchy := fixtureRandomRaw()
	db, err := seqdb.Build(raw, hierarchy)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	const expr, sigma = "[.*(.)]{1,3}.*", int64(4)
	f := fst.MustCompile(expr, db.Dict)
	want := miner.PatternsToMap(db.Dict, miner.MineDFS(f, miner.Weighted(db.Sequences), sigma, miner.DFSOptions{}))

	coord := &cluster.Coordinator{Workers: startWorkers(t, 4)}
	for _, algo := range []plan.Algorithm{plan.AlgoDSeq, plan.AlgoDCand} {
		res, err := coord.Mine(context.Background(), db, expr, sigma, plan.Plan{Algorithm: algo})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if got := miner.PatternsToMap(db.Dict, res.Patterns); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: distributed = %v, want %v", algo, got, want)
		}
	}
}

// fixtureRandomRaw builds a deterministic pseudo-random raw database over a
// small vocabulary with a two-level hierarchy.
func fixtureRandomRaw() ([][]string, seqdb.Hierarchy) {
	vocab := []string{"a1", "a2", "b1", "b2", "c", "d", "e"}
	hierarchy := seqdb.Hierarchy{
		"a1": {"A"}, "a2": {"A"},
		"b1": {"B"}, "b2": {"B"},
	}
	state := uint64(42)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	raw := make([][]string, 60)
	for i := range raw {
		seq := make([]string, next(6)+1)
		for j := range seq {
			seq[j] = vocab[next(len(vocab))]
		}
		raw[i] = seq
	}
	return raw, hierarchy
}

// TestCoordinatorSpillMatchesInProcess runs a 3-worker distributed job with a
// tiny spill threshold on a dataset whose shuffle dwarfs it: every worker must
// spill, and the merged pattern set must equal the in-memory single-process
// run.
func TestCoordinatorSpillMatchesInProcess(t *testing.T) {
	db, err := datagen.NYT(datagen.NYTConfig{NumSentences: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const expr, sigma = "[.*(.)]{1,3}.*", int64(20)
	f := fst.MustCompile(expr, db.Dict)

	coord := &cluster.Coordinator{Workers: startWorkers(t, 3)}
	opts := plan.Plan{Algorithm: plan.AlgoDSeq}
	opts.SpillThreshold = 2048
	for _, algo := range []plan.Algorithm{plan.AlgoDSeq, plan.AlgoDCand} {
		opts.Algorithm = algo
		res, err := coord.Mine(context.Background(), db, expr, sigma, opts)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		want := inProcess(t, algo, f, db, sigma)
		if len(want) == 0 {
			t.Fatalf("%s: reference run found no patterns", algo)
		}
		if !reflect.DeepEqual(res.Patterns, want) {
			t.Errorf("%s: spilled cluster run differs from in-memory run (%d vs %d patterns)",
				algo, len(res.Patterns), len(want))
		}
		if res.Metrics.SpilledBytes == 0 || res.Metrics.SpillCount == 0 {
			t.Errorf("%s: expected cluster-wide spilling, got %+v", algo, res.Metrics)
		}
		for p, r := range res.PerWorker {
			if r.Metrics.SpilledBytes == 0 {
				t.Errorf("%s: worker %d did not spill", algo, p)
			}
		}
	}
}

func TestWorkerNodeAccessor(t *testing.T) {
	node, err := transport.NewNode("127.0.0.1:0", transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if w := cluster.NewWorker(node); w.Node() != node {
		t.Error("Node() must return the wrapped transport node")
	}
}

// TestCoordinatorStreamingMatchesInProcess runs a 3-worker distributed job
// with the streaming pipelined shuffle (a tiny per-peer send buffer, plus a
// compressed-spill variant): the merged pattern set must be byte-identical
// to the in-memory single-process barrier run, and the workers must report
// streamed batches.
func TestCoordinatorStreamingMatchesInProcess(t *testing.T) {
	db, err := datagen.NYT(datagen.NYTConfig{NumSentences: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const expr, sigma = "[.*(.)]{1,3}.*", int64(20)
	f := fst.MustCompile(expr, db.Dict)

	coord := &cluster.Coordinator{Workers: startWorkers(t, 3)}
	variants := map[string]plan.Plan{}
	var streaming plan.Plan
	streaming.SendBufferBytes = 1024
	variants["streaming"] = streaming
	everything := streaming
	everything.SpillThreshold = 2048
	everything.CompressSpill = true
	variants["streaming+spill+deflate"] = everything

	for _, algo := range []plan.Algorithm{plan.AlgoDSeq, plan.AlgoDCand} {
		want := inProcess(t, algo, f, db, sigma)
		if len(want) == 0 {
			t.Fatalf("%s: reference run found no patterns", algo)
		}
		for name, opts := range variants {
			opts.Algorithm = algo
			res, err := coord.Mine(context.Background(), db, expr, sigma, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", algo, name, err)
			}
			if !reflect.DeepEqual(res.Patterns, want) {
				t.Errorf("%s/%s: streaming cluster run differs from in-memory run (%d vs %d patterns)",
					algo, name, len(res.Patterns), len(want))
			}
			if res.Metrics.StreamedBatches == 0 {
				t.Errorf("%s/%s: expected streamed batches, got %+v", algo, name, res.Metrics)
			}
			for p, r := range res.PerWorker {
				if r.Metrics.StreamedBatches == 0 {
					t.Errorf("%s/%s: worker %d streamed no batches", algo, name, p)
				}
			}
			if opts.SpillThreshold > 0 && res.Metrics.SpilledBytes == 0 {
				t.Errorf("%s/%s: expected cluster-wide spilling, got %+v", algo, name, res.Metrics)
			}
		}
	}
}
