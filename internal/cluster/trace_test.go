package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"seqmine/internal/cluster"
	"seqmine/internal/obs"
	"seqmine/internal/paperex"
	"seqmine/internal/plan"
	"seqmine/internal/transport"
)

// flakyWorker fails its first POST /run with the store-eviction 404 (the
// coordinator's repush/retry path) and behaves normally afterwards, so a job
// against it spans two attempts without any worker being declared dead.
type flakyWorker struct {
	inner  http.Handler
	failed atomic.Bool
}

func (f *flakyWorker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/run" && f.failed.CompareAndSwap(false, true) {
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusNotFound)
		_, _ = rw.Write([]byte(`{"error":"cluster: unknown dataset","failed_peer":-1}`))
		return
	}
	f.inner.ServeHTTP(rw, r)
}

// TestTraceSpansWholeCluster is the tracing acceptance test: a 3-worker
// distributed mine with a forced retry must produce ONE trace — the same
// trace id covering the coordinator's job/attempt/task spans for both
// attempts and every worker's run and map/reduce stage spans, merged into the
// coordinator-side recorder and exportable as Chrome trace-event JSON.
func TestTraceSpansWholeCluster(t *testing.T) {
	db := paperDatabase(t)

	const n = 3
	urls := make([]string, n)
	workers := make([]*cluster.Worker, n)
	for i := 0; i < n; i++ {
		// A short open timeout so attempt 0's healthy members give up on the
		// flaky peer's exchange quickly instead of waiting out the default.
		node, err := transport.NewNode("127.0.0.1:0", transport.Config{OpenTimeout: 2 * time.Second})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		t.Cleanup(func() { node.Close() })
		w := cluster.NewWorker(node)
		w.Rec = obs.NewRecorder(fmt.Sprintf("worker-%d", i), 0)
		w.Obs = obs.NewRegistry()
		workers[i] = w
		var h http.Handler = w.Handler()
		if i == n-1 {
			h = &flakyWorker{inner: h}
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}

	rec := obs.NewRecorder("coordinator", 0)
	ctx := obs.WithRecorder(context.Background(), rec)
	coord := &cluster.Coordinator{Workers: urls, Obs: obs.NewRegistry()}
	res, err := coord.Mine(ctx, db, paperex.PatternExpression, paperex.Sigma, plan.Plan{Algorithm: plan.AlgoDSeq})
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	if res.Retries == 0 || res.Attempts < 2 {
		t.Fatalf("the flaky worker should force a retry, got attempts=%d retries=%d", res.Attempts, res.Retries)
	}
	if res.TraceID == "" {
		t.Fatal("Result.TraceID is empty with a recorder on the context")
	}

	spans := rec.TraceSpans(res.TraceID)
	if len(spans) == 0 {
		t.Fatal("no spans recorded for the job's trace")
	}
	byName := map[string]int{}
	procs := map[string]map[string]bool{} // span name -> set of processes
	epochs := map[string]bool{}
	for _, sp := range spans {
		if sp.Trace != res.TraceID {
			t.Fatalf("span %s/%s carries trace %s, want %s", sp.Name, sp.Span, sp.Trace, res.TraceID)
		}
		byName[sp.Name]++
		if procs[sp.Name] == nil {
			procs[sp.Name] = map[string]bool{}
		}
		procs[sp.Name][sp.Proc] = true
		if sp.Name == "cluster.attempt" {
			for _, a := range sp.Attrs {
				if a.Key == "epoch" {
					epochs[a.Value] = true
				}
			}
		}
	}

	if byName["cluster.mine"] != 1 {
		t.Errorf("cluster.mine spans = %d, want exactly 1", byName["cluster.mine"])
	}
	if byName["cluster.attempt"] < 2 || len(epochs) < 2 {
		t.Errorf("want attempt spans from >= 2 epochs, got %d spans over epochs %v", byName["cluster.attempt"], epochs)
	}
	if byName["cluster.task"] < 2*n-1 {
		// Attempt 0 posts to all n workers (the flaky one fails fast), the
		// retry posts to all n again.
		t.Errorf("cluster.task spans = %d, want >= %d", byName["cluster.task"], 2*n-1)
	}
	// Every worker's run and engine stage spans must have been shipped back
	// and merged under the same trace, keeping their per-worker process label.
	for _, name := range []string{"worker.run", "mapreduce.run", "mapreduce.map", "mapreduce.reduce"} {
		if got := len(procs[name]); got != n {
			t.Errorf("%s spans come from %d processes %v, want all %d workers", name, got, keys(procs[name]), n)
		}
	}
	// Coordinator-side spans keep the coordinator's process label.
	for _, name := range []string{"cluster.mine", "cluster.attempt", "cluster.task"} {
		if !procs[name]["coordinator"] {
			t.Errorf("%s spans missing from the coordinator process: %v", name, keys(procs[name]))
		}
	}

	// The merged trace must export as Chrome trace-event JSON (the format
	// GET /debug/trace/{id} serves and Perfetto loads).
	buf, err := obs.ChromeTrace(spans)
	if err != nil {
		t.Fatalf("ChromeTrace: %v", err)
	}
	if len(buf) == 0 {
		t.Fatal("empty Chrome trace export")
	}

	// The registry side of the acceptance criterion: worker stage latency
	// histograms populated and a well-formed Prometheus exposition.
	for i, w := range workers {
		var expo bytes.Buffer
		if err := w.Obs.WritePrometheus(&expo); err != nil {
			t.Fatalf("worker %d WritePrometheus: %v", i, err)
		}
		stats, err := obs.ValidateExposition(&expo)
		if err != nil {
			t.Fatalf("worker %d exposition: %v", i, err)
		}
		if stats.SeriesByName["seqmine_worker_stage_seconds_count"] == 0 {
			t.Errorf("worker %d exposition has no stage-latency series", i)
		}
	}
}

func keys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	return out
}
