package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"seqmine/internal/cluster"
	"seqmine/internal/obs"
	"seqmine/internal/paperex"
	"seqmine/internal/plan"
	"seqmine/internal/transport"
)

// startWorkerWithStore brings up one worker and pushes the paper database's
// bundle into its store, returning the worker fixtures and the dataset id.
func startWorkerWithStore(t *testing.T) (*cluster.Worker, *httptest.Server, string) {
	t.Helper()
	node, err := transport.NewNode("127.0.0.1:0", transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	w := cluster.NewWorker(node)
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)

	data, id, err := cluster.EncodeBundle(paperDatabase(t))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/datasets/"+id, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT bundle: status %d", resp.StatusCode)
	}
	return w, srv, id
}

// postRun POSTs a spec to the worker and returns the status code and error
// body.
func postRun(t *testing.T, srv *httptest.Server, spec cluster.JobSpec) (int, string) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var je struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&je)
	return resp.StatusCode, je.Error
}

// TestWorkerRejectsMalformedSpecs: permanent errors must come back as HTTP
// 400 so the coordinator does not burn its retry budget on them, and a
// missing dataset as 404 so it re-pushes instead.
func TestWorkerRejectsMalformedSpecs(t *testing.T) {
	w, srv, id := startWorkerWithStore(t)
	addr := w.Node().Addr()
	valid := cluster.JobSpec{
		JobID: "job-w", Plan: plan.Plan{Algorithm: plan.AlgoDSeq}, Peer: 0, DataPeers: []string{addr},
		Expression: "(.)", Sigma: 1, DatasetID: id, NumPartitions: 1, Partitions: []int{0},
	}

	cases := []struct {
		name   string
		mutate func(*cluster.JobSpec)
		status int
	}{
		{"empty job id", func(s *cluster.JobSpec) { s.JobID = "" }, http.StatusBadRequest},
		{"negative epoch", func(s *cluster.JobSpec) { s.Epoch = -1 }, http.StatusBadRequest},
		{"peer out of range", func(s *cluster.JobSpec) { s.Peer = 5 }, http.StatusBadRequest},
		{"non-positive sigma", func(s *cluster.JobSpec) { s.Sigma = 0 }, http.StatusBadRequest},
		{"empty dataset id", func(s *cluster.JobSpec) { s.DatasetID = "" }, http.StatusBadRequest},
		{"zero partition count", func(s *cluster.JobSpec) { s.NumPartitions = 0 }, http.StatusBadRequest},
		{"partition out of range", func(s *cluster.JobSpec) { s.Partitions = []int{3} }, http.StatusBadRequest},
		{"bad expression", func(s *cluster.JobSpec) { s.Expression = "((" }, http.StatusBadRequest},
		{"expression past the state bound", func(s *cluster.JobSpec) { s.Expression = "(.{0,60}){0,60}" }, http.StatusBadRequest},
		{"bad algorithm", func(s *cluster.JobSpec) { s.Plan.Algorithm = plan.AlgoNaive }, http.StatusBadRequest},
		{"unknown dataset", func(s *cluster.JobSpec) { s.DatasetID = "sha256-feed" }, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := valid
			tc.mutate(&spec)
			status, msg := postRun(t, srv, spec)
			if status != tc.status {
				t.Errorf("status = %d (%s), want %d", status, msg, tc.status)
			}
			if msg == "" {
				t.Error("error body is empty")
			}
		})
	}

	// The valid spec itself runs (single-peer gang).
	status, msg := postRun(t, srv, valid)
	if status != http.StatusOK {
		t.Fatalf("valid spec: status %d (%s)", status, msg)
	}
}

// TestWorkerRejectsUnknownSpecFields: a spec carrying a field this worker
// does not know — a coordinator/worker version skew, e.g. a retired ablation
// toggle or knob, or the coordinator-side spill directory — is a permanent 400 naming
// the field, never a silently ignored option.
func TestWorkerRejectsUnknownSpecFields(t *testing.T) {
	_, srv, id := startWorkerWithStore(t)
	for _, field := range []string{"use_grid", "spill_tmp_dir", "send_buffer_max_bytes", "prefilter",
		"speculative_after_ms", "task_partitions"} {
		body := `{"job_id":"job-u","peer":0,"data_peers":["x"],"expression":"(.)","sigma":1,"dataset_id":"` + id +
			`","num_partitions":1,"partitions":[0],"plan":{"algorithm":"dseq","` + field + `":true}}`
		resp, err := http.Post(srv.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var je struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&je)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(je.Error, field) {
			t.Errorf("%s: status %d, error %q; want 400 naming the field", field, resp.StatusCode, je.Error)
		}
	}
}

// TestWorkerDatasetEndpoints covers the store's HTTP surface: presence
// probes, listing, hash verification on upload.
func TestWorkerDatasetEndpoints(t *testing.T) {
	_, srv, id := startWorkerWithStore(t)

	resp, err := http.Get(srv.URL + "/datasets/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("presence probe: status %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/datasets/sha256-unknown")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id probe: status %d", resp.StatusCode)
	}

	var infos []cluster.StoreInfo
	resp, err = http.Get(srv.URL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].ID != id || infos[0].Sequences == 0 {
		t.Errorf("GET /datasets = %+v", infos)
	}

	req, err := http.NewRequest(http.MethodPut, srv.URL+"/datasets/sha256-bogus", strings.NewReader("garbage"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mismatched bundle upload: status %d, want 400", resp.StatusCode)
	}

	var health cluster.HealthResponse
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Datasets != 1 || health.DataAddr == "" {
		t.Errorf("healthz = %+v", health)
	}
}

// TestWorkerPrometheusOverHTTP serves a worker with a metrics registry, runs
// one job through it and scrapes GET /metrics?format=prometheus: the text must
// be a valid exposition carrying the job's stage-latency histogram and its
// jobs counter.
func TestWorkerPrometheusOverHTTP(t *testing.T) {
	node, err := transport.NewNode("127.0.0.1:0", transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	w := cluster.NewWorker(node)
	w.Obs = obs.NewRegistry()
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)

	coord := &cluster.Coordinator{Workers: []string{srv.URL}}
	if _, err := coord.Mine(context.Background(), paperDatabase(t), paperex.PatternExpression, paperex.Sigma,
		plan.Plan{Algorithm: plan.AlgoDSeq}); err != nil {
		t.Fatalf("Mine: %v", err)
	}

	resp, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stats, err := obs.ValidateExposition(resp.Body)
	if err != nil {
		t.Fatalf("worker exposition invalid: %v", err)
	}
	for _, want := range []string{"seqmine_worker_stage_seconds_count", "seqmine_worker_jobs_total"} {
		if stats.SeriesByName[want] == 0 {
			t.Errorf("worker exposition lacks %s (series: %v)", want, stats.SeriesByName)
		}
	}
}

// TestWorkerRunUnknownDatasetTyped: the library-level error is ErrUnknownDataset.
func TestWorkerRunUnknownDatasetTyped(t *testing.T) {
	w, _, _ := startWorkerWithStore(t)
	_, err := w.Run(context.Background(), cluster.JobSpec{
		JobID: "job-x", Plan: plan.Plan{Algorithm: plan.AlgoDSeq}, Peer: 0, DataPeers: []string{w.Node().Addr()},
		Expression: "(.)", Sigma: 1, DatasetID: "sha256-missing", NumPartitions: 1, Partitions: []int{0},
	})
	if !errors.Is(err, cluster.ErrUnknownDataset) {
		t.Fatalf("err = %v, want ErrUnknownDataset", err)
	}
}
