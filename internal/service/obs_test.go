package service_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
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
	svc := service.New(service.Config{Obs: obs.NewRegistry(), Recorder: rec})
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

// TestMetricsPrometheusOverHTTP pins the exposition acceptance criterion:
// after a query, GET /metrics?format=prometheus is valid exposition text with
// populated stage-latency histograms, while the default stays JSON.
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
	stats, err := obs.ValidateExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	for _, want := range []string{"seqmine_query_stage_seconds_count", "seqmine_queries_total"} {
		if stats.SeriesByName[want] == 0 {
			t.Errorf("exposition missing %s (series: %v)", want, stats.SeriesByName)
		}
	}
	// The admission gate exports exactly these samples, one series per
	// question (no second gauge of the slots in use).
	admission := map[string]int{}
	for name, n := range stats.SeriesByName {
		if strings.HasPrefix(name, "seqmine_admission_") || name == "seqmine_active_queries" {
			admission[name] = n
		}
	}
	histogram := len(obs.DurationBuckets) + 1 // the buckets and +Inf
	if want := map[string]int{
		"seqmine_admission_inflight":                   1,
		"seqmine_admission_queue_depth":                1,
		"seqmine_admission_queue_depth_max":            1,
		"seqmine_admission_admitted_total":             1,
		"seqmine_admission_shed_total":                 2, // reason="queue_full", "tenant_quota"
		"seqmine_admission_wait_seconds_bucket":        histogram,
		"seqmine_admission_wait_seconds_sum":           1,
		"seqmine_admission_wait_seconds_count":         1,
		"seqmine_admission_retry_after_seconds_bucket": histogram,
		"seqmine_admission_retry_after_seconds_sum":    1,
		"seqmine_admission_retry_after_seconds_count":  1,
	}; !reflect.DeepEqual(admission, want) {
		t.Errorf("admission samples = %v, want %v", admission, want)
	}

	// The JSON default now carries the same series in flattened form.
	jsonResp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer jsonResp.Body.Close()
	b, _ := io.ReadAll(jsonResp.Body)
	var snap struct {
		Registry []obs.SnapshotEntry `json:"registry"`
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	found := false
	for _, e := range snap.Registry {
		if e.Name == "seqmine_query_stage_seconds" && e.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("JSON metrics registry lacks populated stage histograms: %s", b)
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
// keeps meaning the FST alone; and /metrics totals the states kept, in JSON and
// as seqmine_prepared_* series.
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
		{"count", 2, service.PreparedNone, true},
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

	var snap struct {
		Cache    map[string]float64  `json:"compiled_pattern_cache"`
		Registry []obs.SnapshotEntry `json:"registry"`
	}
	if resp := doJSON(t, http.MethodGet, srv.URL+"/metrics", nil, &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if c := snap.Cache; c["prepared_entries"] != 1 || c["prepared_bytes"] <= 0 || c["prepared_builds"] != 1 ||
		c["prepared_hits"] != 2 || c["prepared_evictions"] != 0 || c["size"] != 1 || c["misses"] != 1 {
		t.Errorf("compiled_pattern_cache = %v", c)
	}
	series := map[string]obs.SnapshotEntry{}
	for _, e := range snap.Registry {
		series[e.Name] = e
	}
	for name, want := range map[string]int64{"seqmine_prepared_entries": 1, "seqmine_prepared_bytes": int64(snap.Cache["prepared_bytes"]),
		"seqmine_prepared_builds_total": 1, "seqmine_prepared_hits_total": 2, "seqmine_prepared_evictions_total": 0} {
		if e, ok := series[name]; !ok || e.Value != want {
			t.Errorf("registry series %s = %+v (present %v), want %d", name, e, ok, want)
		}
	}
	if typ := series["seqmine_prepared_bytes"].Type; typ != "gauge" {
		t.Errorf("seqmine_prepared_bytes is a %q, want a gauge", typ)
	}
}
