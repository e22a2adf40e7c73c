package service_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"seqmine/internal/obs"
	"seqmine/internal/paperex"
	"seqmine/internal/service"
)

func newObsServer(t *testing.T) (*httptest.Server, *obs.Recorder) {
	t.Helper()
	rec := obs.NewRecorder("seqmined-test", 0)
	svc := service.New(service.Config{Recorder: rec})
	srv := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(srv.Close)
	return srv, rec
}

// TestMineTraceOverHTTP: a traced query returns its trace id in both the
// body and the X-Seqmine-Trace header, and GET /debug/trace/{id} exports the
// compile/execute/engine spans as Chrome trace-event JSON.
func TestMineTraceOverHTTP(t *testing.T) {
	srv, rec := newObsServer(t)
	putExampleDataset(t, srv, "ex")

	var out service.MineResponse
	resp := doJSON(t, http.MethodPost, srv.URL+"/mine", service.MineRequest{
		Dataset: "ex", Pattern: paperex.PatternExpression, Sigma: paperex.Sigma,
	}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /mine: status %d", resp.StatusCode)
	}
	if out.TraceID == "" {
		t.Fatal("response carries no trace id")
	}
	if got := resp.Header.Get(obs.TraceHeader); got != string(out.TraceID) {
		t.Errorf("%s header = %q, want %q", obs.TraceHeader, got, out.TraceID)
	}

	names := map[string]bool{}
	for _, sp := range rec.TraceSpans(out.TraceID) {
		names[sp.Name] = true
	}
	for _, want := range []string{"service.mine", "service.compile", "service.execute", "mapreduce.run", "mapreduce.map", "mapreduce.reduce"} {
		if !names[want] {
			t.Errorf("trace is missing a %s span (got %v)", want, names)
		}
	}

	traceResp, err := http.Get(srv.URL + "/debug/trace/" + string(out.TraceID))
	if err != nil {
		t.Fatal(err)
	}
	defer traceResp.Body.Close()
	if traceResp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace: status %d", traceResp.StatusCode)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(traceResp.Body).Decode(&chrome); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Error("trace export has no events")
	}

	if resp, err := http.Get(srv.URL + "/debug/trace/ffffffffffffffff"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown trace id: status %d, want 404", resp.StatusCode)
		}
	}
}

// TestMineJoinsRemoteTrace: an incoming X-Seqmine-Trace header makes the
// query's spans part of the caller's trace instead of starting a new one.
func TestMineJoinsRemoteTrace(t *testing.T) {
	srv, rec := newObsServer(t)
	putExampleDataset(t, srv, "ex")

	_, caller := obs.StartSpan(obs.WithRecorder(context.Background(), obs.NewRecorder("caller", 1)), "caller")
	parent := caller.TraceID()
	body := `{"dataset":"ex","pattern":"` + paperex.PatternExpression + `","sigma":2}`
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/mine", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, string(parent)+"-"+string(caller.ID()))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out service.MineResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.TraceID != parent {
		t.Errorf("traced query joined trace %q, want the caller's %q", out.TraceID, parent)
	}
	if len(rec.TraceSpans(parent)) == 0 {
		t.Error("no spans recorded under the caller's trace id")
	}
}

// TestMetricsPrometheusOverHTTP: after a query, GET /metrics?format=prometheus
// serves text exposition of the service's registry, with populated
// stage-latency histograms and exactly the admission series, and the JSON
// default carries the same series.
func TestMetricsPrometheusOverHTTP(t *testing.T) {
	srv, _ := newObsServer(t)
	putExampleDataset(t, srv, "ex")
	var out service.MineResponse
	if resp := doJSON(t, http.MethodPost, srv.URL+"/mine", service.MineRequest{
		Dataset: "ex", Pattern: paperex.PatternExpression, Sigma: paperex.Sigma,
	}, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /mine: status %d", resp.StatusCode)
	}

	resp, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	expo, _ := io.ReadAll(resp.Body)

	jsonResp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer jsonResp.Body.Close()
	b, _ := io.ReadAll(jsonResp.Body)
	var snap service.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	for _, name := range []string{"seqmine_query_stage_seconds", "seqmine_queries_total"} {
		if n, _ := service.Series(snap.Registry, name); n == 0 {
			t.Errorf("JSON registry lacks a populated %s: %s", name, b)
		}
		if !strings.Contains(string(expo), "\n"+name) {
			t.Errorf("exposition lacks %s:\n%s", name, expo)
		}
	}
	// The admission gate exports exactly these series, one per question (no
	// second gauge of the slots in use).
	admission := map[string]int{}
	for _, e := range snap.Registry {
		if strings.HasPrefix(e.Name, "seqmine_admission_") || e.Name == "seqmine_active_queries" {
			admission[e.Name+" "+e.Type]++
		}
	}
	if want := map[string]int{
		"seqmine_admission_inflight gauge":                1,
		"seqmine_admission_queue_depth gauge":             1,
		"seqmine_admission_queue_depth_max gauge":         1,
		"seqmine_admission_admitted_total counter":        1,
		"seqmine_admission_shed_total counter":            2, // reason="queue_full", "tenant_quota"
		"seqmine_admission_wait_seconds histogram":        1,
		"seqmine_admission_retry_after_seconds histogram": 1,
	}; !reflect.DeepEqual(admission, want) {
		t.Errorf("admission series = %v, want %v", admission, want)
	}
}

// TestExecuteSpanSaysHowTheQueryWasSplit: a dfs query on two workers reports
// its workers, tasks and the largest task's share in the exec
// block of the response metrics and, identically, on its service.execute span.
func TestExecuteSpanSaysHowTheQueryWasSplit(t *testing.T) {
	srv, rec := newObsServer(t)
	putExampleDataset(t, srv, "ex")
	var out service.MineResponse
	resp := doJSON(t, http.MethodPost, srv.URL+"/mine", service.MineRequest{
		Dataset: "ex", Pattern: paperex.PatternExpression, Sigma: paperex.Sigma, Algorithm: "dfs", Workers: 2,
	}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /mine: status %d", resp.StatusCode)
	}
	exec := out.Metrics.Exec
	if exec.Workers != 2 || exec.Tasks == 0 || exec.LargestTaskShare <= 0 || exec.LargestTaskShare > 1 {
		t.Fatalf("exec = %+v, want 2 workers, some tasks and a share in (0, 1]", exec)
	}
	want := map[string]string{
		"workers":            strconv.Itoa(exec.Workers),
		"tasks":              strconv.Itoa(exec.Tasks),
		"largest_task_share": strconv.FormatFloat(exec.LargestTaskShare, 'f', 3, 64),
	}
	for _, sp := range rec.TraceSpans(out.TraceID) {
		if sp.Name != "service.execute" {
			continue
		}
		for _, a := range sp.Attrs {
			if v, ok := want[a.Key]; ok && v == a.Value {
				delete(want, a.Key)
			}
		}
	}
	if len(want) != 0 {
		t.Errorf("service.execute span lacks %v", want)
	}
}

// TestQuerySaysWhatItReused: the exec block of the response metrics and the
// service.execute span say whether a query built the prepared DESQ-DFS state
// (with prepare_ms), mined one an earlier query built, or has none; cache_hit
// keeps meaning the FST alone; and /metrics counts the states kept as
// seqmine_prepared_* series.
func TestQuerySaysWhatItReused(t *testing.T) {
	srv, rec := newObsServer(t)
	putExampleDataset(t, srv, "ex")
	for _, c := range []struct {
		algo     string
		sigma    int64
		prepared string
		fstHit   bool
	}{
		{"dfs", 2, service.PreparedBuilt, false},
		{"dfs", 3, service.PreparedHit, true},
		{"dfs", 1, service.PreparedHit, true},
		{"dseq", 2, service.PreparedNone, true},
	} {
		var out service.MineResponse
		resp := doJSON(t, http.MethodPost, srv.URL+"/mine", service.MineRequest{
			Dataset: "ex", Pattern: paperex.PatternExpression, Sigma: c.sigma, Algorithm: c.algo, Workers: 2,
		}, &out)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /mine %s sigma %d: status %d", c.algo, c.sigma, resp.StatusCode)
		}
		exec := out.Metrics.Exec
		if exec.Prepared != c.prepared || (exec.PrepareMS > 0) != (c.prepared == service.PreparedBuilt) || out.Metrics.CacheHit != c.fstHit {
			t.Errorf("%s sigma %d: prepared %q, prepare_ms %v, cache_hit %v; want %q, %v",
				c.algo, c.sigma, exec.Prepared, exec.PrepareMS, out.Metrics.CacheHit, c.prepared, c.fstHit)
		}
		attrs := map[string]string{}
		for _, sp := range rec.TraceSpans(out.TraceID) {
			if sp.Name == "service.execute" {
				for _, a := range sp.Attrs {
					attrs[a.Key] = a.Value
				}
			}
		}
		if _, timed := attrs["prepare_ms"]; attrs["prepared"] != c.prepared || timed != (c.prepared == service.PreparedBuilt) {
			t.Errorf("%s sigma %d: service.execute span says %v, want prepared=%s", c.algo, c.sigma, attrs, c.prepared)
		}
	}

	var snap service.Snapshot
	if resp := doJSON(t, http.MethodGet, srv.URL+"/metrics", nil, &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	series := map[string]obs.SnapshotEntry{}
	for _, e := range snap.Registry {
		series[e.Name] = e
	}
	if e := series["seqmine_prepared_bytes"]; e.Type != "gauge" || e.Value <= 0 {
		t.Errorf("seqmine_prepared_bytes = %+v, want a positive gauge", e)
	}
	for name, want := range map[string]int64{"seqmine_prepared_entries": 1,
		"seqmine_prepared_builds_total": 1, "seqmine_prepared_hits_total": 2, "seqmine_prepared_evictions_total": 0} {
		if e, ok := series[name]; !ok || e.Value != want {
			t.Errorf("registry series %s = %+v (present %v), want %d", name, e, ok, want)
		}
	}
}

// documentedFamilies reads the seqmine_* family table of DESIGN.md: the first
// cell of every row that names a family.
func documentedFamilies(t *testing.T) map[string]bool {
	t.Helper()
	b, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "| `seqmine_"); ok {
			name, _, _ := strings.Cut(rest, "`")
			rows["seqmine_"+name] = true
		}
	}
	return rows
}

// TestEveryFamilyIsDocumented: a new service lists every family it resolves in
// New before its first query, and after in-process queries that spill and
// stream, a failed query and a cluster query, every family in its registry has
// a row in DESIGN.md's family table.
func TestEveryFamilyIsDocumented(t *testing.T) {
	svc := service.New(service.Config{ResultCacheSize: 8, MaxConcurrent: 2})
	families := func() map[string]bool {
		got := map[string]bool{}
		for _, e := range svc.Metrics().Registry {
			got[e.Name] = true
		}
		return got
	}
	before := families()
	for _, name := range []string{
		"seqmine_queries_total", "seqmine_query_errors_total", "seqmine_query_stage_seconds",
		"seqmine_result_cache_hits_total", "seqmine_result_cache_misses_total",
		"seqmine_admission_inflight", "seqmine_admission_queue_depth", "seqmine_admission_queue_depth_max",
		"seqmine_admission_admitted_total", "seqmine_admission_shed_total",
		"seqmine_admission_wait_seconds", "seqmine_admission_retry_after_seconds",
		"seqmine_prepared_entries", "seqmine_prepared_bytes", "seqmine_prepared_hits_total",
		"seqmine_prepared_builds_total", "seqmine_prepared_evictions_total",
	} {
		if !before[name] {
			t.Errorf("%s is missing before the first query", name)
		}
	}

	if _, err := svc.RegisterDataset("rnd", randomClusterDB(t)); err != nil {
		t.Fatal(err)
	}
	const expr = "[.*(.)]{1,3}.*"
	mine := func(opts service.ExecOptions) {
		t.Helper()
		if _, err := svc.Mine(context.Background(), service.Query{Dataset: "rnd", Expression: expr, Sigma: 3, Options: opts}); err != nil {
			t.Fatal(err)
		}
	}
	spilling := service.DefaultExecOptions()
	spilling.Algorithm = service.AlgoDCand
	spilling.SendBufferBytes, spilling.SpillThreshold, spilling.SpillTmpDir = 64, 256, t.TempDir()
	mine(spilling)
	dfs := service.DefaultExecOptions()
	dfs.Algorithm = service.AlgoDFS
	mine(dfs)
	clustered := service.DefaultExecOptions()
	clustered.Cluster = &service.ClusterOptions{Workers: startClusterWorkers(t, 2)}
	mine(clustered)
	if _, err := svc.Mine(context.Background(), service.Query{Dataset: "nope", Expression: expr, Sigma: 3}); err == nil {
		t.Fatal("a query of an unknown dataset succeeded")
	}

	documented := documentedFamilies(t)
	after := families()
	for _, name := range []string{"seqmine_spill_segment_bytes", "seqmine_send_buffer_occupancy_bytes", "seqmine_task_attempt_seconds"} {
		if !after[name] {
			t.Errorf("%s is missing after the queries meant to register it", name)
		}
	}
	for name := range after {
		if !documented[name] {
			t.Errorf("%s has no row in DESIGN.md's family table", name)
		}
	}
}
