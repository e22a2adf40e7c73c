package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"seqmine/internal/dcand"
	"seqmine/internal/dict"
	"seqmine/internal/dseq"
	"seqmine/internal/fst"
	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
	"seqmine/internal/obs"
	"seqmine/internal/plan"
	"seqmine/internal/transport"
)

// Request body caps: a job spec is metadata only (the input travels through
// the dataset store), a dataset upload carries the whole bundle.
const (
	maxSpecBodyBytes    = 8 << 20
	maxDatasetBodyBytes = 1 << 30
)

// ErrUnknownDataset is returned when a job spec references a dataset id the
// worker's store does not hold (e.g. evicted under capacity pressure). The
// coordinator reacts by re-pushing the bundle and retrying the attempt.
var ErrUnknownDataset = errors.New("cluster: unknown dataset")

// Worker executes job specs against a process-wide transport node and a
// dataset store. One Worker serves any number of concurrent jobs (each
// attempt is isolated by its job id on the node).
type Worker struct {
	node *transport.Node

	// Store holds the datasets pushed to this worker; replace it before
	// serving to change its capacity.
	Store *Store

	// SpillDir is the directory for shuffle spill segments of jobs that
	// enable spilling; empty uses the system temp directory.
	SpillDir string

	// Rec records the worker's trace spans (job runs, engine stages,
	// transport sends/receives) and serves GET /debug/trace/{id}; nil
	// disables tracing.
	Rec *obs.Recorder
	// Obs receives the worker's metrics (seqmine_worker_stage_seconds and
	// friends) and serves GET /metrics; nil disables them.
	Obs *obs.Registry
}

// NewWorker wraps a transport node with a default-capacity dataset store.
func NewWorker(node *transport.Node) *Worker {
	return &Worker{node: node, Store: NewStore(0)}
}

// Node returns the underlying transport node.
func (w *Worker) Node() *transport.Node { return w.node }

// Run executes one job spec: it resolves the dataset from the store, compiles
// the expression against its dictionary, selects the peer's share of the
// sequences as the local split, opens the attempt's exchange on the node and
// runs the requested miner. Cancelling ctx aborts the run cooperatively (the
// engine stops at input granularity and the exchange is torn down), so a
// superseded attempt releases its CPU promptly.
func (w *Worker) Run(ctx context.Context, spec JobSpec) (result *JobResult, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if obs.RecorderFrom(ctx) == nil {
		ctx = obs.WithRecorder(ctx, w.Rec)
	}
	ctx, span := obs.StartSpan(ctx, "worker.run",
		obs.String("job", spec.JobID), obs.Int("peer", int64(spec.Peer)),
		obs.String("algorithm", string(spec.Plan.Algorithm)))
	defer func() {
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.End()
	}()
	if err := validateSpec(spec); err != nil {
		return nil, permanentError{err}
	}
	db, ok := w.Store.Get(spec.DatasetID)
	if !ok {
		return nil, fmt.Errorf("%w %s", ErrUnknownDataset, spec.DatasetID)
	}
	f, err := fst.Compile(spec.Expression, db.Dict)
	if err != nil {
		return nil, permanentError{fmt.Errorf("cluster: compiling %q: %w", spec.Expression, err)}
	}
	var split [][]dict.ItemID
	for i := spec.Peer; i < len(db.Sequences); i += len(spec.DataPeers) {
		split = append(split, db.Sequences[i])
	}

	bx, err := w.node.OpenExchangeContext(ctx, spec.JobID, spec.Peer, spec.DataPeers)
	if err != nil {
		return nil, err
	}
	defer bx.Close()
	// Propagate cancellation into the exchange: closing it fails every
	// blocked Send/Recv, so an abandoned attempt (coordinator gone, peer
	// failed, attempt superseded) stops mining instead of waiting out the
	// transport timeouts.
	stopCancel := context.AfterFunc(ctx, func() { bx.Close() })
	defer stopCancel()

	cfg := w.engineConfig(ctx, spec.Plan)
	var (
		patterns []miner.Pattern
		metrics  mapreduce.Metrics
	)
	// validateSpec admitted D-SEQ and D-CAND only.
	if spec.Plan.Algorithm == plan.AlgoDCand {
		patterns, metrics, err = dcand.Mine(f, split, spec.Sigma, dcand.DefaultOptions(), cfg, bx)
	} else {
		patterns, metrics, err = dseq.Mine(f, split, spec.Sigma, dseq.DefaultOptions(), cfg, bx)
	}
	if err != nil {
		return nil, err
	}
	w.observeStages(string(spec.Plan.Algorithm), metrics)
	result = &JobResult{Patterns: patterns, Metrics: metrics}
	// End the run span before collecting, so the shipped batch includes it
	// (plus any spans of earlier attempts of the same trace this worker
	// recorded — that is how a retried job's full history reaches the
	// coordinator through the surviving workers).
	span.SetAttrInt("patterns", int64(len(patterns)))
	span.End()
	if trace, _ := obs.SpanContextFrom(ctx); trace != "" {
		result.Spans = w.Rec.TraceSpans(trace)
	}
	return result, nil
}

// engineConfig is the worker's engine configuration for a job: the plan's
// engine, spilling into this worker's own directory. The plan's Workers never
// travels, so the engine's parallelism is its default (all of this worker's
// CPUs).
func (w *Worker) engineConfig(ctx context.Context, p plan.Plan) mapreduce.Config {
	cfg := p.Engine(ctx, w.Obs)
	cfg.Shuffle.SpillTmpDir = w.SpillDir
	return cfg
}

// decodeSpec reads a POSTed job spec strictly: a field this worker does not
// know (a coordinator of another version shipping a retired or future knob)
// is an error naming the field, not an option silently dropped.
func decodeSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// observeStages feeds one finished run's engine metrics into the worker's
// per-stage latency histograms.
func (w *Worker) observeStages(algorithm string, m mapreduce.Metrics) {
	if w.Obs == nil {
		return
	}
	hist := func(stage string) *obs.Histogram {
		return w.Obs.Histogram("seqmine_worker_stage_seconds",
			"Wall-clock duration of worker engine stages.", obs.DurationBuckets, "stage", stage)
	}
	hist("map").Observe(m.MapTime.Seconds())
	hist("shuffle").Observe(m.ShuffleTime.Seconds())
	hist("reduce").Observe(m.ReduceTime.Seconds())
	w.Obs.Counter("seqmine_worker_jobs_total",
		"Job attempts completed by this worker.", "algorithm", algorithm).Inc()
}

// validateSpec rejects malformed job specs up front, before the worker opens
// the attempt's exchange (permanent errors the coordinator must not retry).
func validateSpec(spec JobSpec) error {
	if spec.JobID == "" {
		return fmt.Errorf("cluster: empty job id")
	}
	if spec.Peer < 0 || spec.Peer >= len(spec.DataPeers) {
		return fmt.Errorf("cluster: peer %d out of range for %d data peers", spec.Peer, len(spec.DataPeers))
	}
	if !spec.Plan.Algorithm.Clustered() {
		return fmt.Errorf("cluster: algorithm %q cannot run on a worker cluster (want %s or %s)", spec.Plan.Algorithm, plan.AlgoDSeq, plan.AlgoDCand)
	}
	if spec.Sigma <= 0 {
		return fmt.Errorf("cluster: minimum support must be positive, got %d", spec.Sigma)
	}
	if spec.DatasetID == "" {
		return fmt.Errorf("cluster: empty dataset id")
	}
	return nil
}

// Handler returns the worker's control API:
//
//	POST /run              execute one JobSpec, respond with the JobResult
//	GET  /healthz          liveness probe, advertises the shuffle address
//	GET  /datasets         list the dataset store's bundles
//	GET  /datasets/{id}    presence probe for one bundle
//	PUT  /datasets/{id}    upload one content-addressed bundle
//	GET  /metrics          worker metrics (JSON; ?format=prometheus for text)
//	GET  /debug/trace/{id} one trace as Chrome trace_event JSON
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "prometheus" {
			rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = w.Obs.WritePrometheus(rw)
			return
		}
		writeJSON(rw, http.StatusOK, struct {
			Metrics []obs.SnapshotEntry `json:"metrics"`
		}{Metrics: w.Obs.Snapshot()})
	})
	mux.HandleFunc("GET /debug/trace/{id}", func(rw http.ResponseWriter, r *http.Request) {
		id := obs.TraceID(r.PathValue("id"))
		spans := w.Rec.TraceSpans(id)
		if len(spans) == 0 {
			writeJSONError(rw, http.StatusNotFound, fmt.Errorf("cluster: no spans recorded for trace %s", id))
			return
		}
		data, err := obs.ChromeTrace(spans)
		if err != nil {
			writeJSONError(rw, http.StatusInternalServerError, err)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		_, _ = rw.Write(data)
	})
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, http.StatusOK, HealthResponse{
			Status:   "ok",
			DataAddr: w.node.Addr(),
			Datasets: w.Store.Len(),
		})
	})
	mux.HandleFunc("GET /datasets", func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, http.StatusOK, w.Store.List())
	})
	mux.HandleFunc("GET /datasets/{id}", func(rw http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if !w.Store.Has(id) {
			writeJSONError(rw, http.StatusNotFound, fmt.Errorf("%w %s", ErrUnknownDataset, id))
			return
		}
		writeJSON(rw, http.StatusOK, struct {
			ID string `json:"id"`
		}{ID: id})
	})
	mux.HandleFunc("PUT /datasets/{id}", func(rw http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		data, err := io.ReadAll(http.MaxBytesReader(rw, r.Body, maxDatasetBodyBytes))
		if err != nil {
			writeJSONError(rw, http.StatusBadRequest, fmt.Errorf("reading bundle: %w", err))
			return
		}
		if err := w.Store.Put(id, data); err != nil {
			writeJSONError(rw, http.StatusBadRequest, err)
			return
		}
		writeJSON(rw, http.StatusOK, struct {
			ID string `json:"id"`
		}{ID: id})
	})
	mux.HandleFunc("POST /run", func(rw http.ResponseWriter, r *http.Request) {
		spec, err := decodeSpec(http.MaxBytesReader(rw, r.Body, maxSpecBodyBytes))
		if err != nil {
			writeJSONError(rw, http.StatusBadRequest, fmt.Errorf("invalid JSON body: %w", err))
			return
		}
		obs.DefaultLogger().Info("run started", obs.String("job", spec.JobID), obs.Int("peer", int64(spec.Peer)))
		ctx := obs.ExtractHeader(obs.WithRecorder(r.Context(), w.Rec), r.Header)
		result, err := w.Run(ctx, spec)
		if err != nil {
			writeRunError(rw, err)
			return
		}
		writeJSON(rw, http.StatusOK, result)
	})
	return mux
}

// permanentError marks failures a retry cannot fix (malformed spec, a
// pattern expression that does not compile, an unknown algorithm). The worker
// reports them as HTTP 400 so the coordinator fails the job instead of
// burning its retry budget on a deterministic error.
type permanentError struct{ err error }

func (e permanentError) Error() string { return e.err.Error() }
func (e permanentError) Unwrap() error { return e.err }

// writeRunError maps a run failure to a status the coordinator can act on:
// 404 for a missing dataset (re-push and retry), 400 for a permanent error
// (do not retry), 500 otherwise, carrying the index of the peer whose
// shuffle connection died when the failure was a peer death.
func writeRunError(rw http.ResponseWriter, err error) {
	var perm permanentError
	switch {
	case errors.Is(err, ErrUnknownDataset):
		writeJSONError(rw, http.StatusNotFound, err)
	case errors.As(err, &perm):
		writeJSONError(rw, http.StatusBadRequest, err)
	default:
		body := jsonError{Error: err.Error(), FailedPeer: -1}
		var perr *transport.PeerError
		if errors.As(err, &perr) {
			body.FailedPeer = perr.Peer
		}
		writeJSON(rw, http.StatusInternalServerError, body)
	}
}

type jsonError struct {
	Error string `json:"error"`
	// FailedPeer is the peer index whose shuffle connection caused the
	// failure; -1 when the failure was not a peer death. It is a diagnostic:
	// the coordinator treats it as hearsay and removes a worker only on
	// first-hand evidence (scheduler.classify). The field is always written
	// (no omitempty): 0 is a valid peer index, so absence must not be
	// confusable with it.
	FailedPeer int `json:"failed_peer"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeJSONError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, jsonError{Error: err.Error(), FailedPeer: -1})
}
