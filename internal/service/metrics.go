package service

import (
	"time"

	"seqmine/internal/mapreduce"
	"seqmine/internal/obs"
)

// QueryMetrics describes the execution of one query, in the spirit of
// mapreduce.Metrics: stage wall-clock times plus volume counters.
type QueryMetrics struct {
	Dataset    string    `json:"dataset"`
	Expression string    `json:"expression"`
	Algorithm  Algorithm `json:"algorithm"`
	Sigma      int64     `json:"sigma"`

	// CacheHit reports whether the compiled FST was served from the
	// compiled-pattern cache (including piggybacking on an in-flight
	// compilation) rather than compiled by this query.
	CacheHit bool `json:"cache_hit"`
	// ResultCacheHit reports whether the whole answer was served from the
	// result cache (including sharing an identical in-flight query's answer):
	// no admission slot was consumed and no mining ran.
	ResultCacheHit bool `json:"result_cache_hit,omitempty"`
	// CompileTime is the time spent obtaining the compiled FST. On a cache
	// hit it is the (near-zero) lookup time.
	CompileTime time.Duration `json:"compile_time_ns"`
	// MineTime is the time spent mining.
	MineTime time.Duration `json:"mine_time_ns"`
	// Patterns is the number of frequent sequences found.
	Patterns int `json:"patterns"`
	// Exec describes how the work was split.
	Exec ExecStats `json:"exec"`
	// MapReduce carries the BSP engine metrics for distributed backends
	// (zero for the sequential backends).
	MapReduce mapreduce.Metrics `json:"mapreduce"`
}

// Snapshot is the JSON view of GET /metrics: the admission gate's state, the
// registered datasets, and the service's metrics registry flattened into one
// entry per series. The registry is the service's one account of what it has
// served; the same series back the Prometheus exposition at
// GET /metrics?format=prometheus. Patterns found, shuffle volumes, cluster
// retries and dataset-store traffic are reported per query only, in each
// response's QueryMetrics.
type Snapshot struct {
	// Admission reports the admission gate's bounds, its current queue and
	// its counts (all-zero bounds when MaxConcurrent is 0, i.e. admission
	// disabled); the counts are read from the seqmine_admission_* series.
	Admission admissionStats      `json:"admission"`
	Datasets  []DatasetInfo       `json:"datasets"`
	Registry  []obs.SnapshotEntry `json:"registry"`
}
