package service_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"seqmine/internal/cluster"
	"seqmine/internal/fst"
	"seqmine/internal/miner"
	"seqmine/internal/seqdb"
	"seqmine/internal/service"
	"seqmine/internal/transport"
)

// startClusterWorkers brings up n worker processes' worth of machinery
// (shuffle node + control server each) inside the test process.
func startClusterWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		node, err := transport.NewNode("127.0.0.1:0", transport.Config{})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		t.Cleanup(func() { node.Close() })
		srv := httptest.NewServer(cluster.NewWorker(node).Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// randomClusterDB returns a deterministic pseudo-random database whose
// mining result spreads over many pivot partitions.
func randomClusterDB(t *testing.T) *seqdb.Database {
	t.Helper()
	vocab := []string{"a1", "a2", "b1", "b2", "c", "d", "e", "f"}
	state := uint64(7)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	raw := make([][]string, 80)
	for i := range raw {
		seq := make([]string, next(6)+1)
		for j := range seq {
			seq[j] = vocab[next(len(vocab))]
		}
		raw[i] = seq
	}
	db, err := seqdb.Build(raw, seqdb.Hierarchy{"a1": {"A"}, "a2": {"A"}, "b1": {"B"}, "b2": {"B"}})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestExecuteClusterMatchesInProcess is the executor-level equivalence
// property: for D-SEQ and D-CAND, the TCP-exchange backend must return
// exactly the same patterns (order-normalized via PatternsToMap) as the
// in-process backend, across all pivot partitions.
func TestExecuteClusterMatchesInProcess(t *testing.T) {
	db := randomClusterDB(t)
	const expr = "[.*(.)]{1,3}.*"
	f, err := fst.Compile(expr, db.Dict)
	if err != nil {
		t.Fatal(err)
	}
	workers := startClusterWorkers(t, 3)

	for _, algo := range []service.Algorithm{service.AlgoDSeq, service.AlgoDCand} {
		for _, sigma := range []int64{2, 5} {
			inOpts := service.DefaultExecOptions()
			inOpts.Algorithm = algo
			want, _, _, err := service.Execute(context.Background(), f, db, sigma, inOpts)
			if err != nil {
				t.Fatalf("%s sigma=%d in-process: %v", algo, sigma, err)
			}

			clOpts := inOpts
			clOpts.Cluster = &service.ClusterOptions{Workers: workers, Expression: expr}
			got, metrics, stats, err := service.Execute(context.Background(), f, db, sigma, clOpts)
			if err != nil {
				t.Fatalf("%s sigma=%d cluster: %v", algo, sigma, err)
			}
			gotM := miner.PatternsToMap(db.Dict, got)
			wantM := miner.PatternsToMap(db.Dict, want)
			if !reflect.DeepEqual(gotM, wantM) {
				t.Errorf("%s sigma=%d: cluster backend = %v, want %v", algo, sigma, gotM, wantM)
			}
			if stats.Shards != len(workers) {
				t.Errorf("%s sigma=%d: Shards = %d, want %d", algo, sigma, stats.Shards, len(workers))
			}
			if !metrics.RemoteShuffle {
				t.Errorf("%s sigma=%d: metrics should be marked RemoteShuffle", algo, sigma)
			}
		}
	}
}

// TestServiceMineCluster runs the full service path (registry, cache,
// expression plumbing into the cluster options) against a 3-worker cluster.
func TestServiceMineCluster(t *testing.T) {
	svc := service.New(service.Config{})
	db := randomClusterDB(t)
	if _, err := svc.RegisterDataset("rnd", db); err != nil {
		t.Fatal(err)
	}
	workers := startClusterWorkers(t, 3)

	opts := service.DefaultExecOptions()
	opts.Algorithm = service.AlgoDCand
	opts.Cluster = &service.ClusterOptions{Workers: workers} // Expression filled by Mine
	resp, err := svc.Mine(context.Background(), service.Query{
		Dataset:    "rnd",
		Expression: "[.*(.)]{1,3}.*",
		Sigma:      2,
		Options:    opts,
	})
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}

	inOpts := service.DefaultExecOptions()
	inOpts.Algorithm = service.AlgoDCand
	wantResp, err := svc.Mine(context.Background(), service.Query{
		Dataset:    "rnd",
		Expression: "[.*(.)]{1,3}.*",
		Sigma:      2,
		Options:    inOpts,
	})
	if err != nil {
		t.Fatalf("Mine in-process: %v", err)
	}
	got := miner.PatternsToMap(resp.Dict, resp.Patterns)
	want := miner.PatternsToMap(wantResp.Dict, wantResp.Patterns)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("service cluster mine = %v, want %v", got, want)
	}
	if resp.Metrics.MapReduce.ShuffleBytes <= 0 {
		t.Errorf("expected positive wire ShuffleBytes, got %d", resp.Metrics.MapReduce.ShuffleBytes)
	}
}

// TestExecuteClusterRejectsOtherAlgorithms: only dseq/dcand can run on a
// cluster; dfs and the names the service does not run (count, naive,
// seminaive) must error rather than silently running locally, and reach no
// worker.
func TestExecuteClusterRejectsOtherAlgorithms(t *testing.T) {
	db := randomClusterDB(t)
	f, err := fst.Compile("[.*(.)]{1,3}.*", db.Dict)
	if err != nil {
		t.Fatal(err)
	}
	var touched atomic.Int32
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		touched.Add(1)
		http.Error(w, "unexpected request", http.StatusInternalServerError)
	}))
	t.Cleanup(worker.Close)
	for _, algo := range []service.Algorithm{service.AlgoDFS, "count", "naive", "seminaive"} {
		opts := service.DefaultExecOptions()
		opts.Algorithm = algo
		opts.Cluster = &service.ClusterOptions{Workers: []string{worker.URL}, Expression: "[.*(.)]{1,3}.*"}
		if _, _, _, err := service.Execute(context.Background(), f, db, 2, opts); err == nil {
			t.Errorf("expected an error for %s on a cluster", algo)
		}
	}
	if n := touched.Load(); n != 0 {
		t.Errorf("%d requests reached the worker before the algorithm was rejected", n)
	}
}
