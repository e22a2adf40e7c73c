// Package service is the query-serving layer of seqmine: a long-lived,
// concurrency-safe front end over the miners of the paper. It provides
//
//   - a dataset registry holding multiple named sequence databases
//     (registered programmatically or loaded from files, leased to queries
//     with reference counting so replacement never disturbs in-flight work);
//   - a compiled-pattern cache, an LRU over compiled FSTs keyed by (dataset
//     generation, pattern expression) with singleflight deduplication so
//     concurrent identical queries compile once;
//   - a query executor that runs the sequential backends with the miner's
//     own parallelism and drives the BSP engine for the distributed ones,
//     under a per-query context deadline;
//   - per-query and aggregate metrics (compile/mine time, cache hit rate,
//     patterns found) in the idiom of mapreduce.Metrics.
//
// The seqmined daemon (cmd/seqmined) exposes this over HTTP; the root
// seqmine package re-exports it for library users.
package service

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"seqmine/internal/dict"
	"seqmine/internal/fst"
	"seqmine/internal/lru"
	"seqmine/internal/miner"
	"seqmine/internal/obs"
	"seqmine/internal/plan"
	"seqmine/internal/seqdb"
)

// Config configures a Service.
type Config struct {
	// CacheSize is the capacity (entries) of the compiled-pattern cache;
	// 0 means 128.
	CacheSize int
	// Workers bounds each query's worker pool when the query does not set
	// its own; 0 uses all CPUs.
	Workers int
	// MaxConcurrent bounds the number of queries mining at once (the
	// admission gate's in-flight bound). Excess queries wait in the bounded
	// admission queue (QueueDepth); past that they are shed with an
	// OverloadError. 0 means unbounded (no queueing, no shedding).
	MaxConcurrent int
	// QueueDepth is the admission queue bound: how many queries may wait for
	// a mining slot before the service sheds load. 0 defaults to
	// 4×MaxConcurrent; negative means no waiting room (immediate shed when
	// all slots are busy). Ignored when MaxConcurrent is 0.
	QueueDepth int
	// ResultCacheSize is the capacity (entries) of the mined-result cache,
	// keyed by (dataset generation, expression, sigma, algorithm) with
	// singleflight deduplication of concurrent identical queries. 0 disables
	// result caching.
	ResultCacheSize int
	// Auth, when non-nil, requires an API key on every query and dataset
	// mutation and charges tenants' quotas. Nil disables authentication
	// (everything runs as the anonymous admin tenant).
	Auth *Authenticator
	// Catalog, when non-nil, persists dataset registrations: every
	// Register/Load writes the dataset as a content-addressed bundle plus a
	// journaled name binding, and RestoreCatalog re-registers the cataloged
	// datasets after a restart.
	Catalog *Catalog
	// DefaultTimeout is applied to queries that carry no deadline; 0 means
	// no default deadline.
	DefaultTimeout time.Duration
	// ClusterWorkers are the control URLs of a default worker cluster.
	// Queries that request distributed execution without naming workers use
	// it (see the HTTP API's "distributed" flag).
	ClusterWorkers []string
	// Knobs are the daemon defaults of the inheritable execution knobs
	// (shuffle bounds, retry policy): a query's
	// unset knobs inherit them (plan.Knobs.Merge).
	plan.Knobs
	// Obs is the metrics registry the service's instruments live on:
	// query/error counters, the seqmine_query_stage_seconds stage-latency
	// histograms, and — because Mine threads it into the executor and the
	// cluster coordinator — the engine's spill/streaming histograms and the
	// scheduler's attempt/heartbeat histograms. Nil disables registry
	// metrics; the JSON Snapshot counters are unaffected.
	Obs *obs.Registry
	// Recorder receives trace spans of queries whose context carries no
	// recorder of its own; the HTTP handler serves recorded traces at
	// GET /debug/trace/{trace_id}. Nil leaves tracing to the caller's
	// context (no recorder there either means spans are not recorded).
	Recorder *obs.Recorder
}

// Service is a concurrent mining service. All methods are safe for
// concurrent use.
type Service struct {
	cfg     Config
	reg     *Registry
	cache   *fstCache
	results *lru.Cache[resultKey, cachedResult] // nil when ResultCacheSize <= 0
	adm     *admission
	agg     aggregator
}

// ErrQuotaExceeded is returned (wrapped) when a tenant's dataset quota is
// exhausted; the HTTP layer maps it to 429.
var ErrQuotaExceeded = errors.New("tenant quota exceeded")

// ErrForbidden is returned (wrapped) when a tenant acts on another tenant's
// dataset; the HTTP layer maps it to 403.
var ErrForbidden = errors.New("forbidden")

// New creates a Service.
func New(cfg Config) *Service {
	queueDepth := cfg.QueueDepth
	if queueDepth == 0 && cfg.MaxConcurrent > 0 {
		queueDepth = 4 * cfg.MaxConcurrent
	}
	return &Service{
		cfg:     cfg,
		reg:     NewRegistry(),
		cache:   newFSTCache(cfg.CacheSize, cfg.Obs),
		results: newResultCache(cfg.ResultCacheSize),
		adm:     newAdmission(cfg.MaxConcurrent, queueDepth, cfg.Obs),
	}
}

// Auth returns the service's authenticator (nil when auth is disabled).
func (s *Service) Auth() *Authenticator { return s.cfg.Auth }

// RestoreCatalog re-registers every dataset of the configured catalog (the
// persisted registrations of previous runs) and returns how many it
// restored. Call it once after New, before serving; with no catalog it is a
// no-op.
func (s *Service) RestoreCatalog() (int, error) {
	if s.cfg.Catalog == nil {
		return 0, nil
	}
	n := 0
	for _, e := range s.cfg.Catalog.Entries() {
		db, err := s.cfg.Catalog.Load(e)
		if err != nil {
			return n, err
		}
		if _, err := s.reg.RegisterOwned(e.Name, db, e.Tenant); err != nil {
			return n, fmt.Errorf("restoring dataset %q: %w", e.Name, err)
		}
		n++
	}
	return n, nil
}

// RegisterDataset adds (or replaces) a database under the given name.
// Replacement drops the previous generation's cached FSTs and results so the
// LRUs are not left holding unreachable entries.
func (s *Service) RegisterDataset(name string, db *seqdb.Database) (uint64, error) {
	return s.RegisterDatasetAs(name, db, nil)
}

// RegisterDatasetAs is RegisterDataset on behalf of an authenticated tenant:
// the registration is charged against the tenant's dataset quota and the
// tenant is recorded as the owner. A nil tenant registers unowned (admin).
func (s *Service) RegisterDatasetAs(name string, db *seqdb.Database, tenant *Tenant) (uint64, error) {
	if err := s.checkDatasetQuota(name, tenant); err != nil {
		return 0, err
	}
	owner := ""
	if tenant != nil {
		owner = tenant.Name
	}
	// Persist before registering: a catalog failure must not leave a
	// registration that would silently vanish on restart.
	if s.cfg.Catalog != nil {
		if _, err := s.cfg.Catalog.Put(name, db, owner); err != nil {
			return 0, fmt.Errorf("persisting dataset %q: %w", name, err)
		}
	}
	gen, err := s.reg.RegisterOwned(name, db, owner)
	if err == nil && gen > 1 {
		s.invalidateDataset(name)
	}
	return gen, err
}

// invalidateDataset drops the cached FSTs, prepared states and results of
// every generation of the named dataset. Replacement bumps the generation, so
// stale keys are unreachable anyway; this frees their memory eagerly.
func (s *Service) invalidateDataset(name string) {
	s.cache.invalidateDataset(name)
	s.results.Remove(func(k resultKey, _ cachedResult) bool { return k.dataset == name })
}

// checkDatasetQuota enforces a tenant's MaxDatasets bound. Replacing a
// dataset the tenant already owns does not consume quota.
func (s *Service) checkDatasetQuota(name string, tenant *Tenant) error {
	if tenant == nil || tenant.maxDatasets <= 0 {
		return nil
	}
	if owner, ok := s.reg.Owner(name); ok && owner == tenant.Name {
		return nil
	}
	if s.reg.CountOwned(tenant.Name) >= tenant.maxDatasets {
		return fmt.Errorf("%w: tenant %q already holds %d datasets",
			ErrQuotaExceeded, tenant.Name, tenant.maxDatasets)
	}
	return nil
}

// LoadDataset reads a database from files and registers it.
func (s *Service) LoadDataset(name, sequencesPath, hierarchyPath string) (uint64, error) {
	db, err := seqdb.ReadFiles(sequencesPath, hierarchyPath)
	if err != nil {
		return 0, err
	}
	return s.RegisterDatasetAs(name, db, nil)
}

// RemoveDataset unregisters a dataset and drops its cached FSTs and results.
// In-flight queries are unaffected.
func (s *Service) RemoveDataset(name string) bool {
	ok, _ := s.RemoveDatasetAs(name, nil)
	return ok
}

// RemoveDatasetAs is RemoveDataset on behalf of an authenticated tenant.
// A tenant may only remove datasets it owns; the nil (anonymous/admin)
// tenant may remove anything.
func (s *Service) RemoveDatasetAs(name string, tenant *Tenant) (bool, error) {
	if tenant != nil {
		if owner, ok := s.reg.Owner(name); ok && owner != tenant.Name {
			return false, fmt.Errorf("%w: dataset %q is not owned by tenant %q", ErrForbidden, name, tenant.Name)
		}
	}
	ok := s.reg.Unregister(name)
	if ok {
		s.invalidateDataset(name)
		if s.cfg.Catalog != nil {
			if err := s.cfg.Catalog.Delete(name); err != nil {
				return true, fmt.Errorf("unpersisting dataset %q: %w", name, err)
			}
		}
	}
	return ok, nil
}

// Datasets lists the registered datasets.
func (s *Service) Datasets() []DatasetInfo { return s.reg.List() }

// ClusterWorkers returns the configured default worker cluster (may be nil).
func (s *Service) ClusterWorkers() []string { return s.cfg.ClusterWorkers }

// DatasetInfo describes one dataset, or an error if it is not registered.
func (s *Service) DatasetInfo(name string) (DatasetInfo, error) {
	ds, err := s.reg.Acquire(name)
	if err != nil {
		return DatasetInfo{}, err
	}
	defer ds.Release()
	return DatasetInfo{
		Name:          ds.Name,
		Generation:    ds.Gen,
		ActiveQueries: ds.entry.refs.Load() - 1, // exclude our own lease
		Stats:         ds.entry.stats,
		Tenant:        ds.entry.owner,
	}, nil
}

// Query is one mining request.
type Query struct {
	// Dataset names a registered dataset.
	Dataset string
	// Expression is the DESQ pattern expression.
	Expression string
	// Sigma is the minimum support threshold (> 0).
	Sigma int64
	// Options configures the execution; the zero value mines with D-SEQ and
	// inherits every daemon default.
	Options ExecOptions
	// Timeout overrides the service default deadline for this query; 0
	// keeps the default.
	Timeout time.Duration
}

// Response is the outcome of one query.
type Response struct {
	// Patterns are the frequent sequences, sorted by decreasing frequency.
	Patterns []miner.Pattern
	// Dict is the dictionary of the dataset generation the query ran
	// against; use it to decode Patterns (immutable, safe to share).
	Dict *dict.Dictionary
	// Metrics describes the execution.
	Metrics QueryMetrics
	// TraceID identifies the query's trace when a recorder was attached
	// (via the query context or Config.Recorder); empty otherwise. The
	// recorded spans cover compile/execute stages, the engine's map,
	// shuffle, spill and reduce phases, and — for cluster execution — the
	// scheduler's attempts and every worker's local spans, merged into one
	// trace.
	TraceID obs.TraceID
}

// Mine serves one query: it leases the dataset, obtains the compiled FST from
// the compiled-pattern cache (compiling at most once across concurrent
// identical queries), runs the executor and records metrics.
func (s *Service) Mine(ctx context.Context, q Query) (*Response, error) {
	if q.Expression == "" {
		return nil, s.fail(fmt.Errorf("empty pattern expression"))
	}
	if q.Sigma <= 0 {
		return nil, s.fail(fmt.Errorf("minimum support must be positive, got %d", q.Sigma))
	}
	// Tracing: install the service recorder unless the caller brought one
	// (the HTTP handler installs it plus any remote parent before calling),
	// then open the root span of the query. With no recorder anywhere,
	// StartSpan returns a nil span and every use below no-ops.
	if s.cfg.Recorder != nil && obs.RecorderFrom(ctx) == nil {
		ctx = obs.WithRecorder(ctx, s.cfg.Recorder)
	}
	ctx, span := obs.StartSpan(ctx, "service.mine",
		obs.String("dataset", q.Dataset), obs.Int("sigma", q.Sigma))
	defer span.End()
	fail := func(err error) error {
		span.SetAttr("error", err.Error())
		return s.fail(err)
	}
	opts := q.Options
	if opts.Workers <= 0 {
		opts.Workers = s.cfg.Workers
	}
	opts.Knobs = opts.Knobs.Merge(s.cfg.Knobs)
	if opts.Obs == nil {
		opts.Obs = s.cfg.Obs
	}
	if opts.Cluster != nil && opts.Cluster.Expression == "" {
		// The workers compile the expression themselves; copy the options so
		// the caller's struct is not mutated.
		withExpr := *opts.Cluster
		withExpr.Expression = q.Expression
		opts.Cluster = &withExpr
	}

	timeout := q.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	ds, err := s.reg.Acquire(q.Dataset)
	if err != nil {
		return nil, fail(err)
	}

	m := QueryMetrics{
		Dataset:    q.Dataset,
		Expression: q.Expression,
		Algorithm:  opts.Algorithm,
		Sigma:      q.Sigma,
	}
	if m.Algorithm == "" {
		m.Algorithm = AlgoDSeq
	}
	span.SetAttr("algorithm", string(m.Algorithm))

	// Result cache: a hit (or piggybacking on an identical in-flight query)
	// serves the answer without consuming an admission slot — the cheap path
	// that keeps repeated analyst queries off the mining pool entirely. A miss
	// mines under the flight, which resolves with whatever mine returns.
	rkey := resultKey{dataset: ds.Name, generation: ds.Gen, expression: q.Expression,
		sigma: q.Sigma, algorithm: m.Algorithm}
	lookupStart := time.Now()
	res, shared, err := s.results.Get(ctx, rkey, func() (cachedResult, error) {
		if s.results != nil {
			s.cfg.Obs.Counter("seqmine_result_cache_misses_total",
				"Queries that missed the result cache and mined.").Inc()
		}
		return s.mine(ctx, ds, q, opts, &m) // takes over the dataset lease
	})
	if shared {
		ds.Release()
	}
	if err != nil {
		return nil, fail(err)
	}
	if shared {
		m.ResultCacheHit = true
		m.CacheHit = true // the FST never needed compiling either
		m.Exec.Prepared = PreparedNone
		m.MineTime = time.Since(lookupStart)
		s.cfg.Obs.Counter("seqmine_result_cache_hits_total",
			"Queries served from the result cache (including shared in-flight answers).").Inc()
		span.SetAttr("result_cache_hit", "true")
	}
	m.Patterns = len(res.patterns)
	s.agg.record(m)
	s.cfg.Obs.Counter("seqmine_queries_total",
		"Queries served successfully.", "algorithm", string(m.Algorithm)).Inc()
	span.SetAttrInt("patterns", int64(m.Patterns))
	return &Response{Patterns: res.patterns, Dict: res.dict, Metrics: m, TraceID: span.TraceID()}, nil
}

// mine answers a query the result cache does not hold: admission, compile,
// execute. It writes the stage metrics into m and releases ds when the mining
// work has ended, which may be after mine returned on ctx.
func (s *Service) mine(ctx context.Context, ds *Dataset, q Query, opts ExecOptions, m *QueryMetrics) (cachedResult, error) {
	// Admission: the bounded queue and the tenant's in-flight quota. Shed
	// queries error with OverloadError (HTTP 429 + Retry-After).
	admitStart := time.Now()
	release, err := s.adm.acquire(ctx, TenantFrom(ctx))
	if err != nil {
		ds.Release()
		return cachedResult{}, err
	}
	s.stageHist("queue").Observe(time.Since(admitStart).Seconds())
	s.agg.addActive(1)
	served := time.Now()

	// The admission slot, active counter and dataset lease are held for the
	// true lifetime of the mining work: a query abandoned on deadline keeps
	// its resources until the background goroutine finishes, so MaxConcurrent
	// genuinely bounds concurrent mining.
	cleanup := func() {
		ds.Release()
		s.agg.addActive(-1)
		s.adm.done(time.Since(served))
		release()
	}

	key := cacheKey{dataset: ds.Name, generation: ds.Gen, expression: q.Expression}
	compileStart := time.Now()
	f, hit, err := s.cache.get(ctx, key, func() (*fst.FST, error) {
		return fst.Compile(q.Expression, ds.DB.Dict)
	})
	m.CompileTime = time.Since(compileStart)
	m.CacheHit = hit
	s.stageHist("compile").Observe(m.CompileTime.Seconds())
	obs.Observe(ctx, "service.compile", compileStart, m.CompileTime,
		obs.String("cache_hit", strconv.FormatBool(hit)))
	if err != nil {
		cleanup()
		return cachedResult{}, fmt.Errorf("compiling %q: %w", q.Expression, err)
	}

	mineStart := time.Now()
	patterns, mrm, exec, err := execute(ctx, f, ds.DB, q.Sigma, opts, cleanup,
		func(ctx context.Context, workers int) (*miner.Prepared, bool, error) {
			return s.cache.prepared(ctx, key, f, ds.DB.Sequences, workers)
		})
	m.MineTime = time.Since(mineStart)
	s.stageHist("mine").Observe(m.MineTime.Seconds())
	attrs := []obs.Attr{obs.String("algorithm", string(m.Algorithm)),
		obs.Int("workers", int64(exec.Workers)), obs.Int("tasks", int64(exec.Tasks)),
		obs.String("largest_task_share", strconv.FormatFloat(exec.LargestTaskShare, 'f', 3, 64)),
		obs.String("prepared", exec.Prepared)}
	if exec.Prepared == PreparedBuilt {
		attrs = append(attrs, obs.String("prepare_ms", strconv.FormatFloat(exec.PrepareMS, 'f', 3, 64)))
	}
	obs.Observe(ctx, "service.execute", mineStart, m.MineTime, attrs...)
	if err != nil {
		return cachedResult{}, err
	}
	m.Exec = exec
	m.MapReduce = mrm
	return cachedResult{patterns: patterns, dict: ds.DB.Dict}, nil
}

// stageHist returns the stage-latency histogram series for one serving
// stage ("compile" or "mine"); nil (a no-op) without a registry.
func (s *Service) stageHist(stage string) *obs.Histogram {
	return s.cfg.Obs.Histogram("seqmine_query_stage_seconds",
		"Wall-clock duration of query-serving stages.", obs.DurationBuckets, "stage", stage)
}

// Decode renders a mined pattern against the named dataset's current
// dictionary.
func (s *Service) Decode(dataset string, p miner.Pattern) (string, error) {
	ds, err := s.reg.Acquire(dataset)
	if err != nil {
		return "", err
	}
	defer ds.Release()
	return ds.DB.Dict.DecodeString(p.Items), nil
}

// Metrics returns a snapshot of the aggregate service metrics.
func (s *Service) Metrics() Snapshot {
	snap := s.agg.snapshot()
	snap.Cache = s.cache.stats()
	snap.ResultCache = s.results.Stats()
	snap.Admission = s.adm.stats()
	snap.Datasets = s.reg.List()
	snap.Registry = s.cfg.Obs.Snapshot()
	return snap
}

func (s *Service) fail(err error) error {
	s.agg.incErrors()
	s.cfg.Obs.Counter("seqmine_query_errors_total", "Queries that returned an error.").Inc()
	return err
}
