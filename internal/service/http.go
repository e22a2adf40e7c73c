package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"seqmine/internal/obs"
	"seqmine/internal/plan"
	"seqmine/internal/seqdb"
)

// Request body caps: mining requests are small; dataset uploads may carry
// inline sequences and get a generous limit.
const (
	maxMineBodyBytes    = 1 << 20   // 1 MiB
	maxDatasetBodyBytes = 256 << 20 // 256 MiB
)

// MineRequest is the body of POST /mine.
type MineRequest struct {
	Dataset   string `json:"dataset"`
	Pattern   string `json:"pattern"`
	Sigma     int64  `json:"sigma"`
	Algorithm string `json:"algorithm,omitempty"` // dfs|dseq|dcand; default dseq
	Workers   int    `json:"workers,omitempty"`
	// Shards is ignored; it leaves with the [benchmark] PR that stops sending it.
	Shards    int   `json:"shards,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Limit truncates the response to the top-k patterns (0 = all).
	Limit int `json:"limit,omitempty"`
	// ClusterWorkers runs a dseq/dcand query across these worker processes
	// (control URLs) over the TCP shuffle transport.
	ClusterWorkers []string `json:"cluster_workers,omitempty"`
	// Distributed runs the query on the daemon's default worker cluster
	// (seqmined -cluster); an error if none is configured.
	Distributed bool `json:"distributed,omitempty"`
	// Knobs are the per-query overrides of the daemon defaults, under the
	// field names plan.Knobs declares (spill_threshold_bytes,
	// send_buffer_bytes, task_retries): 0 / absent inherits the daemon
	// default (the flag of the same name), and a negative number forces the
	// feature off for this query.
	plan.Knobs
}

// maxRequestWorkers bounds POST /mine's "workers": the engine starts that many
// map and reduce goroutines and sizes per-worker buffers by it.
const maxRequestWorkers = 1024

// toPlan validates the request's algorithm and worker count and assembles
// the query plan.
func (r MineRequest) toPlan() (plan.Plan, error) {
	if r.Workers > maxRequestWorkers {
		return plan.Plan{}, fmt.Errorf("workers %d exceeds the limit of %d", r.Workers, maxRequestWorkers)
	}
	algo, err := plan.ParseAlgorithm(r.Algorithm)
	return plan.Plan{
		Algorithm: algo,
		Workers:   r.Workers,
		Knobs:     r.Knobs,
	}, err
}

// MinePattern is one mined pattern on the wire.
type MinePattern struct {
	Items []string `json:"items"`
	Freq  int64    `json:"freq"`
}

// MineResponse is the body of a successful POST /mine.
type MineResponse struct {
	Patterns []MinePattern `json:"patterns"`
	// Total is the number of patterns found before Limit truncation.
	Total   int          `json:"total"`
	Metrics QueryMetrics `json:"metrics"`
	// TraceID identifies the query's recorded trace (also echoed in the
	// X-Seqmine-Trace response header); fetch the merged span set as Chrome
	// trace-event JSON from GET /debug/trace/{trace_id}. Empty when the
	// daemon has no trace recorder.
	TraceID obs.TraceID `json:"trace_id,omitempty"`
}

// DatasetRequest is the body of PUT /datasets/{name}: either file paths
// (resolved on the server) or inline sequences with an optional hierarchy.
type DatasetRequest struct {
	Path          string              `json:"path,omitempty"`
	HierarchyPath string              `json:"hierarchy_path,omitempty"`
	Sequences     [][]string          `json:"sequences,omitempty"`
	Hierarchy     map[string][]string `json:"hierarchy,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// NewHandler returns the HTTP API of the service:
//
//	POST   /mine                 run a mining query
//	GET    /datasets             list datasets
//	PUT    /datasets/{name}      register a dataset (paths or inline data)
//	GET    /datasets/{name}      one dataset's info
//	DELETE /datasets/{name}      unregister a dataset
//	GET    /metrics              admission, datasets and the metrics
//	                             registry (JSON; add ?format=prometheus for
//	                             the registry as text exposition)
//	GET    /debug/trace/{id}     one recorded trace as Chrome trace-event JSON
//	GET    /healthz              liveness probe
//
// POST /mine honors an incoming X-Seqmine-Trace header (joining the caller's
// trace) and echoes the query's trace id in the same response header.
//
// When the service is configured with an Authenticator, every endpoint except
// /healthz, /metrics and /debug/ requires an API key ("Authorization: Bearer
// <key>" or X-Api-Key) and runs as the key's tenant: queries are charged
// against the tenant's in-flight quota, dataset registrations against its
// dataset quota, and a tenant may only delete its own datasets. Shed queries
// (admission queue full, tenant quota exhausted) answer 429 Too Many Requests
// with a Retry-After header.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "prometheus" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = s.metrics.WritePrometheus(w)
			return
		}
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	mux.HandleFunc("GET /debug/trace/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := obs.TraceID(r.PathValue("id"))
		spans := s.cfg.Recorder.TraceSpans(id)
		if len(spans) == 0 {
			writeError(w, http.StatusNotFound, fmt.Errorf("no spans recorded for trace %q", id))
			return
		}
		buf, err := obs.ChromeTrace(spans)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(buf)
	})
	mux.HandleFunc("POST /mine", func(w http.ResponseWriter, r *http.Request) {
		var req MineRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxMineBodyBytes)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid JSON body: %w", err))
			return
		}
		p, err := req.toPlan()
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		opts := ExecOptions{Plan: p}
		switch {
		case len(req.ClusterWorkers) > 0:
			opts.Cluster = &ClusterOptions{Workers: req.ClusterWorkers}
		case req.Distributed:
			workers := s.ClusterWorkers()
			if len(workers) == 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("no default worker cluster configured (start the daemon with -cluster)"))
				return
			}
			opts.Cluster = &ClusterOptions{Workers: workers}
		}
		// Join the caller's trace when the request carries one; the service
		// recorder is installed here so remote parent spans land in it.
		ctx := obs.ExtractHeader(obs.WithRecorder(r.Context(), s.cfg.Recorder), r.Header)
		resp, err := s.Mine(ctx, Query{
			Dataset:    req.Dataset,
			Expression: req.Pattern,
			Sigma:      req.Sigma,
			Options:    opts,
			Timeout:    time.Duration(req.TimeoutMS) * time.Millisecond,
		})
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		if resp.TraceID != "" {
			w.Header().Set(obs.TraceHeader, string(resp.TraceID))
		}
		out := MineResponse{Total: len(resp.Patterns), Metrics: resp.Metrics, TraceID: resp.TraceID}
		patterns := resp.Patterns
		if req.Limit > 0 && len(patterns) > req.Limit {
			patterns = patterns[:req.Limit]
		}
		out.Patterns = make([]MinePattern, len(patterns))
		for i, p := range patterns {
			out.Patterns[i] = MinePattern{Items: resp.Dict.DecodeSequence(p.Items), Freq: p.Freq}
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /datasets", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Datasets())
	})
	mux.HandleFunc("GET /datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		info, err := s.DatasetInfo(r.PathValue("name"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("PUT /datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		var req DatasetRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxDatasetBodyBytes)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid JSON body: %w", err))
			return
		}
		tenant := TenantFrom(r.Context())
		var err error
		switch {
		case req.Path != "" && req.Sequences != nil:
			writeError(w, http.StatusBadRequest, fmt.Errorf("specify either path or sequences, not both"))
			return
		case req.Path != "":
			var db *seqdb.Database
			db, err = seqdb.ReadFiles(req.Path, req.HierarchyPath)
			if err == nil {
				_, err = s.RegisterDatasetAs(name, db, tenant)
			}
		case req.Sequences != nil:
			var db *seqdb.Database
			db, err = seqdb.Build(req.Sequences, seqdb.Hierarchy(req.Hierarchy))
			if err == nil {
				_, err = s.RegisterDatasetAs(name, db, tenant)
			}
		default:
			writeError(w, http.StatusBadRequest, fmt.Errorf("specify path or sequences"))
			return
		}
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		info, err := s.DatasetInfo(name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("DELETE /datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		ok, err := s.RemoveDatasetAs(name, TenantFrom(r.Context()))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown dataset %q", name))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return withAuth(s, mux)
}

// withAuth enforces API-key authentication on every endpoint except the
// unauthenticated operational plane (/healthz, /metrics, /debug/). With no
// authenticator configured it passes everything through as the anonymous
// tenant.
func withAuth(s *Service, next http.Handler) http.Handler {
	if s.cfg.Auth == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" || strings.HasPrefix(r.URL.Path, "/debug/") {
			next.ServeHTTP(w, r)
			return
		}
		tenant, err := s.cfg.Auth.Authenticate(r)
		if err != nil {
			writeError(w, http.StatusUnauthorized, err)
			return
		}
		next.ServeHTTP(w, r.WithContext(WithTenant(r.Context(), tenant)))
	})
}

func statusFor(err error) int {
	if _, ok := IsOverload(err); ok {
		return http.StatusTooManyRequests
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request
	case errors.Is(err, ErrUnknownDataset):
		return http.StatusNotFound
	case errors.Is(err, ErrQuotaExceeded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrUnauthenticated):
		return http.StatusUnauthorized
	case errors.Is(err, ErrForbidden):
		return http.StatusForbidden
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	// Every 429 carries a Retry-After: the admission gate's priced hint when
	// it shed the query, a conservative second otherwise.
	if status == http.StatusTooManyRequests {
		retry := 1
		if oe, ok := IsOverload(err); ok {
			retry = int(oe.RetryAfter / time.Second)
			if retry < 1 {
				retry = 1
			}
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
