package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"seqmine/internal/paperex"
	"seqmine/internal/plan"
	"seqmine/internal/service"
)

func newTestServer(t *testing.T) (*httptest.Server, *service.Service) {
	t.Helper()
	svc := service.New(service.Config{})
	srv := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(srv.Close)
	return srv, svc
}

func doJSON(t *testing.T, method, url string, body any, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp
}

func putExampleDataset(t *testing.T, srv *httptest.Server, name string) {
	t.Helper()
	var info service.DatasetInfo
	resp := doJSON(t, http.MethodPut, srv.URL+"/datasets/"+name, service.DatasetRequest{
		Sequences: paperex.RawDB(),
		Hierarchy: map[string][]string{"a1": {"A"}, "a2": {"A"}},
	}, &info)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT dataset: status %d", resp.StatusCode)
	}
	if info.Name != name || info.Stats.NumSequences != int64(len(paperex.RawDB())) {
		t.Fatalf("PUT dataset info = %+v", info)
	}
}

func TestHealthz(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(b)) != "ok" {
		t.Errorf("healthz = %d %q", resp.StatusCode, b)
	}
}

func TestMineEndToEnd(t *testing.T) {
	srv, _ := newTestServer(t)
	putExampleDataset(t, srv, "ex")

	want := paperex.ExpectedFrequent()
	for _, algo := range []string{"dfs", "count", "dseq", "dcand"} {
		var out service.MineResponse
		resp := doJSON(t, http.MethodPost, srv.URL+"/mine", service.MineRequest{
			Dataset:   "ex",
			Pattern:   paperex.PatternExpression,
			Sigma:     paperex.Sigma,
			Algorithm: algo,
			Workers:   3,
			Shards:    3, // accepted, ignored
		}, &out)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /mine (%s): status %d", algo, resp.StatusCode)
		}
		got := map[string]int64{}
		for _, p := range out.Patterns {
			got[strings.Join(p.Items, " ")] = p.Freq
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: patterns = %v, want %v", algo, got, want)
		}
		if out.Total != len(want) {
			t.Errorf("%s: total = %d, want %d", algo, out.Total, len(want))
		}
	}
}

// TestMineCacheHitOverHTTP verifies the acceptance criterion: a repeated
// identical query is served from the compiled-pattern cache, observable in
// both the per-query metrics and GET /metrics.
func TestMineCacheHitOverHTTP(t *testing.T) {
	srv, _ := newTestServer(t)
	putExampleDataset(t, srv, "ex")

	req := service.MineRequest{Dataset: "ex", Pattern: paperex.PatternExpression, Sigma: paperex.Sigma}
	var first, second service.MineResponse
	doJSON(t, http.MethodPost, srv.URL+"/mine", req, &first)
	doJSON(t, http.MethodPost, srv.URL+"/mine", req, &second)
	if first.Metrics.CacheHit {
		t.Error("first query must not report cache_hit")
	}
	if !second.Metrics.CacheHit {
		t.Error("repeated query must report cache_hit")
	}

	var snap service.Snapshot
	resp := doJSON(t, http.MethodGet, srv.URL+"/metrics", nil, &snap)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if snap.Queries != 2 || snap.CacheHits != 1 || snap.Cache.Misses != 1 {
		t.Errorf("metrics = queries %d, cache hits %d, compile misses %d; want 2, 1, 1",
			snap.Queries, snap.CacheHits, snap.Cache.Misses)
	}
	if len(snap.Datasets) != 1 || snap.Datasets[0].Name != "ex" {
		t.Errorf("metrics datasets = %+v", snap.Datasets)
	}
}

func TestMineLimit(t *testing.T) {
	srv, _ := newTestServer(t)
	putExampleDataset(t, srv, "ex")
	var out service.MineResponse
	doJSON(t, http.MethodPost, srv.URL+"/mine", service.MineRequest{
		Dataset: "ex", Pattern: paperex.PatternExpression, Sigma: 1, Limit: 1,
	}, &out)
	if len(out.Patterns) != 1 {
		t.Fatalf("limit=1 returned %d patterns", len(out.Patterns))
	}
	if out.Total <= 1 {
		t.Errorf("total = %d, want the untruncated count > 1", out.Total)
	}
}

func TestDatasetLifecycleOverHTTP(t *testing.T) {
	srv, _ := newTestServer(t)
	putExampleDataset(t, srv, "a")
	putExampleDataset(t, srv, "b")

	var list []service.DatasetInfo
	doJSON(t, http.MethodGet, srv.URL+"/datasets", nil, &list)
	if len(list) != 2 || list[0].Name != "a" || list[1].Name != "b" {
		t.Fatalf("GET /datasets = %+v", list)
	}

	var info service.DatasetInfo
	if resp := doJSON(t, http.MethodGet, srv.URL+"/datasets/a", nil, &info); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /datasets/a: status %d", resp.StatusCode)
	}
	if info.ActiveQueries != 0 {
		t.Errorf("idle dataset reports %d active queries", info.ActiveQueries)
	}

	if resp := doJSON(t, http.MethodDelete, srv.URL+"/datasets/a", nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE /datasets/a: status %d", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodDelete, srv.URL+"/datasets/a", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("second DELETE: status %d, want 404", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodGet, srv.URL+"/datasets/a", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET deleted dataset: status %d, want 404", resp.StatusCode)
	}
}

func TestHTTPErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	putExampleDataset(t, srv, "ex")

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		status int
	}{
		{"bad JSON", http.MethodPost, "/mine", "not json", http.StatusBadRequest},
		{"unknown dataset", http.MethodPost, "/mine",
			service.MineRequest{Dataset: "nope", Pattern: "(.)", Sigma: 1}, http.StatusNotFound},
		{"bad algorithm", http.MethodPost, "/mine",
			service.MineRequest{Dataset: "ex", Pattern: "(.)", Sigma: 1, Algorithm: "spark"}, http.StatusBadRequest},
		{"zero sigma", http.MethodPost, "/mine",
			service.MineRequest{Dataset: "ex", Pattern: "(.)", Sigma: 0}, http.StatusBadRequest},
		{"bad pattern", http.MethodPost, "/mine",
			service.MineRequest{Dataset: "ex", Pattern: "(((", Sigma: 1}, http.StatusBadRequest},
		{"dataset without body fields", http.MethodPut, "/datasets/x",
			service.DatasetRequest{}, http.StatusBadRequest},
		{"dataset with both sources", http.MethodPut, "/datasets/x",
			service.DatasetRequest{Path: "p", Sequences: [][]string{{"a"}}}, http.StatusBadRequest},
		{"dataset with missing file", http.MethodPut, "/datasets/x",
			service.DatasetRequest{Path: "/does/not/exist"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		var errResp struct {
			Error string `json:"error"`
		}
		var body any = tc.body
		if s, ok := tc.body.(string); ok {
			body = json.RawMessage(s) // will marshal invalidly on purpose
		}
		resp := doJSONRaw(t, tc.method, srv.URL+tc.path, body, &errResp)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if errResp.Error == "" {
			t.Errorf("%s: missing error message in body", tc.name)
		}
	}
}

// doJSONRaw is doJSON but tolerates bodies that are intentionally invalid
// JSON (passed as json.RawMessage).
func doJSONRaw(t *testing.T, method, url string, body any, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if raw, ok := body.(json.RawMessage); ok {
		rd = bytes.NewReader(raw)
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
				t.Fatalf("%s %s: decoding response: %v", method, url, err)
			}
		}
		return resp
	}
	return doJSON(t, method, url, body, out)
}

func TestMineFromLoadedFiles(t *testing.T) {
	srv, _ := newTestServer(t)
	dir := t.TempDir()
	seqPath := dir + "/sequences.txt"
	hierPath := dir + "/hierarchy.txt"
	var sb strings.Builder
	for _, seq := range paperex.RawDB() {
		fmt.Fprintln(&sb, strings.Join(seq, " "))
	}
	if err := writeFile(seqPath, sb.String()); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(hierPath, "a1\tA\na2\tA\n"); err != nil {
		t.Fatal(err)
	}
	var info service.DatasetInfo
	resp := doJSON(t, http.MethodPut, srv.URL+"/datasets/files", service.DatasetRequest{
		Path: seqPath, HierarchyPath: hierPath,
	}, &info)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT from files: status %d", resp.StatusCode)
	}

	var out service.MineResponse
	doJSON(t, http.MethodPost, srv.URL+"/mine", service.MineRequest{
		Dataset: "files", Pattern: paperex.PatternExpression, Sigma: paperex.Sigma,
	}, &out)
	got := map[string]int64{}
	for _, p := range out.Patterns {
		got[strings.Join(p.Items, " ")] = p.Freq
	}
	if !reflect.DeepEqual(got, paperex.ExpectedFrequent()) {
		t.Errorf("patterns = %v, want %v", got, paperex.ExpectedFrequent())
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestMineSpillThresholdOverHTTP drives the spill path through the wire API:
// "spill_threshold_bytes" must reach the engine, produce identical patterns,
// and surface the spill metrics in the response.
func TestMineSpillThresholdOverHTTP(t *testing.T) {
	srv, _ := newTestServer(t)
	putExampleDataset(t, srv, "ex")

	want := paperex.ExpectedFrequent()
	var out service.MineResponse
	req := service.MineRequest{Dataset: "ex", Pattern: paperex.PatternExpression, Sigma: paperex.Sigma, Algorithm: "dseq"}
	req.SpillThreshold = 1 // every record spills on the tiny example
	resp := doJSON(t, http.MethodPost, srv.URL+"/mine", req, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /mine: status %d", resp.StatusCode)
	}
	got := map[string]int64{}
	for _, p := range out.Patterns {
		got[strings.Join(p.Items, " ")] = p.Freq
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("patterns = %v, want %v", got, want)
	}
	if out.Metrics.MapReduce.SpilledBytes == 0 || out.Metrics.MapReduce.SpillCount == 0 {
		t.Errorf("expected spill metrics in the response, got %+v", out.Metrics.MapReduce)
	}
}

// TestMineStreamingOverHTTP drives the streaming shuffle through the wire
// API: "send_buffer_bytes" must reach the engine, produce identical patterns
// and surface StreamedBatches both per query and in the GET /metrics totals.
func TestMineStreamingOverHTTP(t *testing.T) {
	srv, _ := newTestServer(t)
	putExampleDataset(t, srv, "ex")

	want := paperex.ExpectedFrequent()
	var out service.MineResponse
	req := service.MineRequest{Dataset: "ex", Pattern: paperex.PatternExpression, Sigma: paperex.Sigma, Algorithm: "dseq"}
	req.SendBufferBytes = 32 // tiny buffer: every few records flush and stream
	resp := doJSON(t, http.MethodPost, srv.URL+"/mine", req, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /mine: status %d", resp.StatusCode)
	}
	got := map[string]int64{}
	for _, p := range out.Patterns {
		got[strings.Join(p.Items, " ")] = p.Freq
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("patterns = %v, want %v", got, want)
	}
	if out.Metrics.MapReduce.StreamedBatches == 0 {
		t.Errorf("expected streaming metrics in the response, got %+v", out.Metrics.MapReduce)
	}

	var snap service.Snapshot
	resp = doJSON(t, http.MethodGet, srv.URL+"/metrics", nil, &snap)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if snap.StreamedBatches == 0 {
		t.Errorf("GET /metrics should total streamed batches, got %+v", snap)
	}
}

// TestMineClusterSchedulerOverHTTP drives the task-based cluster scheduler
// through the wire API: attempt/retry counters and dataset-store accounting
// must appear per query and in the GET /metrics totals, and a resubmission
// must hit the workers' dataset stores instead of re-shipping sequences.
func TestMineClusterSchedulerOverHTTP(t *testing.T) {
	srv, _ := newTestServer(t)
	putExampleDataset(t, srv, "ex")
	workers := startClusterWorkers(t, 3)

	mine := func(t *testing.T) service.MineResponse {
		t.Helper()
		var out service.MineResponse
		resp := doJSON(t, http.MethodPost, srv.URL+"/mine", service.MineRequest{
			Dataset:        "ex",
			Pattern:        paperex.PatternExpression,
			Sigma:          paperex.Sigma,
			Algorithm:      "dseq",
			ClusterWorkers: workers,
			Knobs:          plan.Knobs{TaskRetries: 1},
		}, &out)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /mine: status %d", resp.StatusCode)
		}
		return out
	}

	want := paperex.ExpectedFrequent()
	first := mine(t)
	got := map[string]int64{}
	for _, p := range first.Patterns {
		got[strings.Join(p.Items, " ")] = p.Freq
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cluster patterns = %v, want %v", got, want)
	}
	cs := first.Metrics.Exec.Cluster
	if cs == nil {
		t.Fatal("cluster query response carries no ClusterStats")
	}
	if cs.Attempts < 1 || cs.Tasks != 3 || cs.StoreMisses != 3 || cs.StorePutBytes == 0 {
		t.Errorf("first cluster run stats = %+v", cs)
	}

	second := mine(t)
	cs = second.Metrics.Exec.Cluster
	if cs == nil || cs.StoreMisses != 0 || cs.StorePutBytes != 0 || cs.StoreHits != 3 {
		t.Errorf("resubmission should ship zero sequence bytes: %+v", cs)
	}

	var snap service.Snapshot
	if resp := doJSON(t, http.MethodGet, srv.URL+"/metrics", nil, &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if snap.ClusterAttempts < 2 || snap.DatasetStoreHits < 3 || snap.DatasetStoreMisses < 3 {
		t.Errorf("GET /metrics cluster totals not aggregated: %+v", snap)
	}
}
