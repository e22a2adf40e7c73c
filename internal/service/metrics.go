package service

import (
	"sync"
	"time"

	"seqmine/internal/lru"
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

// Total returns the total serving time of the query.
func (m QueryMetrics) Total() time.Duration { return m.CompileTime + m.MineTime }

// aggregator accumulates service-wide counters across queries. One mutex
// orders every update against snapshot(), so a snapshot is an internally
// consistent cut of the counters: a query recorded concurrently is either
// fully visible or not at all. (The fields used to be independent atomics,
// and a snapshot taken mid-record could report a query's patterns without
// its query count — visible as a cache hit rate above 1 or patterns with
// zero queries.)
type aggregator struct {
	mu              sync.Mutex
	queries         uint64
	errors          uint64
	active          int64
	patterns        uint64
	cacheHits       uint64
	resultCacheHits uint64
	compileTimeNS   int64
	mineTimeNS      int64
	spilledBytes    int64
	spillCount      int64
	streamedBatches int64
	attempts        int64
	retries         int64
	storeHits       int64
	storeMisses     int64
	storePutBytes   int64
}

func (a *aggregator) record(m QueryMetrics) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.queries++
	a.patterns += uint64(m.Patterns)
	if m.CacheHit {
		a.cacheHits++
	}
	if m.ResultCacheHit {
		a.resultCacheHits++
	}
	a.compileTimeNS += int64(m.CompileTime)
	a.mineTimeNS += int64(m.MineTime)
	a.spilledBytes += m.MapReduce.SpilledBytes
	a.spillCount += m.MapReduce.SpillCount
	a.streamedBatches += m.MapReduce.StreamedBatches
	if c := m.Exec.Cluster; c != nil {
		a.attempts += int64(c.Attempts)
		a.retries += int64(c.Retries)
		a.storeHits += int64(c.StoreHits)
		a.storeMisses += int64(c.StoreMisses)
		a.storePutBytes += c.StorePutBytes
	}
}

func (a *aggregator) incErrors() {
	a.mu.Lock()
	a.errors++
	a.mu.Unlock()
}

func (a *aggregator) addActive(delta int64) {
	a.mu.Lock()
	a.active += delta
	a.mu.Unlock()
}

// Snapshot is a point-in-time view of the aggregate service metrics.
type Snapshot struct {
	Queries       uint64  `json:"queries"`
	Errors        uint64  `json:"errors"`
	ActiveQueries int64   `json:"active_queries"`
	PatternsFound uint64  `json:"patterns_found"`
	CacheHits     uint64  `json:"query_cache_hits"`
	CacheHitRate  float64 `json:"query_cache_hit_rate"`
	// ResultCacheHits counts queries served entirely from the result cache
	// (no admission slot, no mining).
	ResultCacheHits uint64        `json:"result_cache_hits"`
	CompileTime     time.Duration `json:"compile_time_total_ns"`
	MineTime        time.Duration `json:"mine_time_total_ns"`
	// SpilledBytes/SpillCount/StreamedBatches total the
	// shuffle's disk and streaming activity across all served queries
	// (per-query values live in each response's MapReduce metrics).
	SpilledBytes    int64 `json:"spilled_bytes_total"`
	SpillCount      int64 `json:"spill_count_total"`
	StreamedBatches int64 `json:"streamed_batches_total"`
	// ClusterAttempts/ClusterRetries total the cluster scheduler's
	// fault-tolerance activity, and DatasetStoreHits/Misses/
	// PutBytes its dataset-store traffic, across all cluster-executed
	// queries.
	ClusterAttempts      int64 `json:"cluster_attempts_total"`
	ClusterRetries       int64 `json:"cluster_retries_total"`
	DatasetStoreHits     int64 `json:"dataset_store_hits_total"`
	DatasetStoreMisses   int64 `json:"dataset_store_misses_total"`
	DatasetStorePutBytes int64 `json:"dataset_store_put_bytes_total"`
	// Cache reports the compiled-pattern cache's entries and, under the
	// prepared_* keys, the prepared DESQ-DFS states they hold.
	Cache fstCacheStats `json:"compiled_pattern_cache"`
	// ResultCache reports the result cache's occupancy and hit counters
	// (all-zero when result caching is disabled).
	ResultCache lru.Stats `json:"result_cache"`
	// Admission reports the admission gate's live and cumulative load
	// counters (all-zero when MaxConcurrent is 0, i.e. admission disabled).
	Admission admissionStats `json:"admission"`
	Datasets  []DatasetInfo  `json:"datasets"`
	// Registry flattens the typed metrics registry (stage-latency and engine
	// histograms, per-algorithm counters) into the JSON view; the same series
	// back the Prometheus exposition at GET /metrics?format=prometheus.
	Registry []obs.SnapshotEntry `json:"registry,omitempty"`
}

func (a *aggregator) snapshot() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := Snapshot{
		Queries:              a.queries,
		Errors:               a.errors,
		ActiveQueries:        a.active,
		PatternsFound:        a.patterns,
		CacheHits:            a.cacheHits,
		ResultCacheHits:      a.resultCacheHits,
		CompileTime:          time.Duration(a.compileTimeNS),
		MineTime:             time.Duration(a.mineTimeNS),
		SpilledBytes:         a.spilledBytes,
		SpillCount:           a.spillCount,
		StreamedBatches:      a.streamedBatches,
		ClusterAttempts:      a.attempts,
		ClusterRetries:       a.retries,
		DatasetStoreHits:     a.storeHits,
		DatasetStoreMisses:   a.storeMisses,
		DatasetStorePutBytes: a.storePutBytes,
	}
	if s.Queries > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(s.Queries)
	}
	return s
}
