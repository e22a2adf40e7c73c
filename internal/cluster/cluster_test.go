package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
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

// runLog records the /run requests a set of workers answered with 200: the
// spec and the worker's own result, so a test can check each gang member's
// share of a job.
type runLog struct {
	mu   sync.Mutex
	runs []loggedRun
}

type loggedRun struct {
	spec   cluster.JobSpec
	result cluster.JobResult
}

// wrap serves inner through the log.
func (l *runLog) wrap(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/run" {
			inner.ServeHTTP(rw, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		var run loggedRun
		if rec.Code == http.StatusOK && json.Unmarshal(body, &run.spec) == nil &&
			json.Unmarshal(rec.Body.Bytes(), &run.result) == nil {
			l.mu.Lock()
			l.runs = append(l.runs, run)
			l.mu.Unlock()
		}
		maps.Copy(rw.Header(), rec.Header())
		rw.WriteHeader(rec.Code)
		_, _ = rw.Write(rec.Body.Bytes())
	})
}

// take returns the runs of the winning attempt logged since the last take,
// and forgets every run logged so far. The winning attempt is the one the
// last logged run belongs to: the scheduler launches an attempt only after
// every request of the previous one has ended.
func (l *runLog) take() []loggedRun {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []loggedRun
	if len(l.runs) > 0 {
		last := l.runs[len(l.runs)-1].spec.JobID
		for _, run := range l.runs {
			if run.spec.JobID == last {
				out = append(out, run)
			}
		}
	}
	l.runs = nil
	return out
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
		// ShuffleBytes must be real traffic (that everything written was read
		// is the transport's own TestExchangeThreePeers).
		if res.Metrics.ShuffleBytes <= 0 {
			t.Errorf("ShuffleBytes = %d, want > 0", res.Metrics.ShuffleBytes)
		}
		if !res.Metrics.RemoteShuffle {
			t.Error("metrics should be marked RemoteShuffle")
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
	})
}

// TestCoordinatorRejectsBadAlgorithm: an algorithm that cannot run on a
// cluster — dfs, and the names no backend serves (count, naive, seminaive) —
// and the unresolved empty name fail before the coordinator probes
// or pushes a dataset bundle or posts a job spec. The scripted workers would
// hold the bundle and answer every spec with success, so a late check could
// not fail the job at all.
func TestCoordinatorRejectsBadAlgorithm(t *testing.T) {
	db := paperDatabase(t)
	var touched atomic.Int32
	w := (&scriptedWorker{addr: "peer-0"}).handler(func(context.Context, []string) bool { return false })
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/datasets/") || r.URL.Path == "/run" {
			touched.Add(1)
		}
		w.ServeHTTP(rw, r)
	}))
	t.Cleanup(srv.Close)
	coord := &cluster.Coordinator{Workers: []string{srv.URL}}
	for _, algo := range []plan.Algorithm{plan.AlgoDFS, "count", "naive", "seminaive", ""} {
		if _, err := coord.Mine(context.Background(), db, paperex.PatternExpression, paperex.Sigma, plan.Plan{Algorithm: algo}); err == nil {
			t.Errorf("algorithm %q: expected an error, the job cannot run on a cluster", algo)
		}
	}
	if n := touched.Load(); n != 0 {
		t.Errorf("%d dataset or run requests reached the worker before the algorithm was rejected", n)
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

	var log runLog
	coord := &cluster.Coordinator{Workers: startWrappedWorkers(t, 3, log.wrap)}
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
		gang := log.take()
		if len(gang) != 3 {
			t.Errorf("%s: %d workers answered the winning attempt, want 3", algo, len(gang))
		}
		for _, run := range gang {
			if run.result.Metrics.SpilledBytes == 0 {
				t.Errorf("%s: worker %d did not spill", algo, run.spec.Peer)
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
// spilling variant): the merged pattern set must be byte-identical
// to the in-memory single-process barrier run, and the workers must report
// streamed batches.
func TestCoordinatorStreamingMatchesInProcess(t *testing.T) {
	db, err := datagen.NYT(datagen.NYTConfig{NumSentences: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const expr, sigma = "[.*(.)]{1,3}.*", int64(20)
	f := fst.MustCompile(expr, db.Dict)

	var log runLog
	coord := &cluster.Coordinator{Workers: startWrappedWorkers(t, 3, log.wrap)}
	variants := map[string]plan.Plan{}
	var streaming plan.Plan
	streaming.SendBufferBytes = 1024
	variants["streaming"] = streaming
	everything := streaming
	everything.SpillThreshold = 2048
	variants["streaming+spill"] = everything

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
			gang := log.take()
			if len(gang) != 3 {
				t.Errorf("%s/%s: %d workers answered the winning attempt, want 3", algo, name, len(gang))
			}
			for _, run := range gang {
				if run.result.Metrics.StreamedBatches == 0 {
					t.Errorf("%s/%s: worker %d streamed no batches", algo, name, run.spec.Peer)
				}
			}
			if opts.SpillThreshold > 0 && res.Metrics.SpilledBytes == 0 {
				t.Errorf("%s/%s: expected cluster-wide spilling, got %+v", algo, name, res.Metrics)
			}
		}
	}
}
