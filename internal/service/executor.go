package service

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"seqmine/internal/cluster"
	"seqmine/internal/dcand"
	"seqmine/internal/dseq"
	"seqmine/internal/fst"
	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
	"seqmine/internal/naive"
	"seqmine/internal/obs"
	"seqmine/internal/plan"
	"seqmine/internal/seqdb"
)

// Algorithm names a mining backend; see plan.Algorithm. The string values
// double as the wire format of the HTTP API.
type Algorithm = plan.Algorithm

const (
	AlgoDFS       = plan.AlgoDFS
	AlgoCount     = plan.AlgoCount
	AlgoDSeq      = plan.AlgoDSeq
	AlgoDCand     = plan.AlgoDCand
	AlgoNaive     = plan.AlgoNaive
	AlgoSemiNaive = plan.AlgoSemiNaive
)

// ExecOptions configures one query's execution: the query plan by value (see
// plan.Plan for every knob and its zero-value meaning) plus the two things
// that cannot travel in a plan. Through Service.Mine, unset knobs inherit the
// daemon defaults (Config.Knobs); Execute takes the plan as given. The zero
// value mines with D-SEQ, in memory, behind the phase barrier.
type ExecOptions struct {
	plan.Plan

	// Cluster, when non-nil, runs the distributed backends (dseq, dcand)
	// across remote worker processes over the TCP shuffle transport instead
	// of the in-process BSP engine. The plan is shipped to the workers as is,
	// minus the two process-local fields (Workers, SpillTmpDir): workers size
	// their own engines and spill into their own -spill-dir.
	Cluster *ClusterOptions

	// Obs receives the execution's registry metrics: the in-process engine's
	// spill-segment and send-buffer histograms, or the cluster scheduler's
	// attempt and heartbeat histograms. Nil disables registry metrics.
	// Service.Mine fills it in from its own registry when unset.
	Obs *obs.Registry
}

// ClusterOptions selects distributed execution across worker processes.
type ClusterOptions struct {
	// Workers are the control URLs of the worker processes
	// ("http://host:port"), one per peer.
	Workers []string
	// Expression is the pattern expression shipped to the workers, which
	// compile it against the dataset dictionary themselves. Service.Mine
	// fills it in from the query; direct Execute callers must set it (the
	// compiled FST cannot be sent over the wire).
	Expression string
}

// The values of ExecStats.Prepared.
const (
	PreparedHit   = "hit"
	PreparedBuilt = "built"
	PreparedNone  = "none"
)

// preparedSource is how a Service hands execute the prepared DESQ-DFS state of
// the query's (dataset generation, expression): it returns the state, building
// it on workers goroutines when no query has yet, and whether this call built
// it.
type preparedSource func(ctx context.Context, workers int) (p *miner.Prepared, built bool, err error)

// DefaultExecOptions mirrors seqmine.DefaultOptions: D-SEQ, every knob unset.
func DefaultExecOptions() ExecOptions {
	return ExecOptions{Plan: plan.Plan{Algorithm: AlgoDSeq}}
}

// ExecStats describes how a query was executed.
type ExecStats struct {
	// Shards is 1 for an in-process run and the number of worker processes
	// for a cluster run.
	Shards int `json:"shards"`
	// Candidates is always 0; it leaves with the [benchmark] PR that stops reading it.
	Candidates int `json:"candidates"`
	// SplitStats is how the miner divided the work in this process: workers,
	// and for a parallel dfs its first-level tasks and the largest one's share.
	// Zero for a cluster run, whose workers size their own engines.
	miner.SplitStats
	// Prepared says what the query reused of the work sigma does not change:
	// "hit" — a dfs query mined the prepared DESQ-DFS state an earlier or
	// concurrent query of the same (dataset generation, expression) built;
	// "built" — it built that state itself, in PrepareMS milliseconds of its
	// mine time; "none" — count, the distributed backends, the cluster, a
	// result-cache hit and Execute outside a Service have no such state.
	Prepared  string  `json:"prepared"`
	PrepareMS float64 `json:"prepare_ms,omitempty"`
	// Cluster carries the scheduler's attempt/retry and dataset-store
	// accounting for cluster-executed queries (nil otherwise).
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// ClusterStats is the fault-tolerance and dataset-store accounting of one
// cluster-executed query.
type ClusterStats struct {
	// Tasks is the number of per-partition tasks of the job.
	Tasks int `json:"tasks"`
	// Attempts is the number of attempts launched (>= 1); Retries counts
	// relaunches after failures.
	Attempts int `json:"attempts"`
	Retries  int `json:"retries"`
	// DeadWorkers is how many pool members were declared dead during the
	// job.
	DeadWorkers int `json:"dead_workers"`
	// StoreHits / StoreMisses / StorePutBytes describe the dataset-store
	// traffic: a resubmission against an already-pushed dataset reports
	// zero misses and zero put bytes.
	StoreHits     int   `json:"store_hits"`
	StoreMisses   int   `json:"store_misses"`
	StorePutBytes int64 `json:"store_put_bytes"`
}

// Execute runs one mining job. The sequential backends (dfs, count) mine the
// whole database on Workers goroutines with the miner's own parallelism (see
// miner.MineDFS) and return the single-threaded miner's result. The
// distributed backends (dseq, dcand, naive, seminaive) partition by pivot item
// and run on the in-process BSP engine with Workers map/reduce workers.
//
// Cancellation: the job runs in a goroutine and the call returns ctx.Err()
// as soon as the context is done. The sequential miners check the context
// every 1,024 sequences of set-up or counting and before growing each prefix,
// the BSP engine at input granularity in the map phase and between key groups
// in the reduce phase (mapreduce.Config.Context); the unit in flight — one
// prefix's scan, one map input, one reduce call — finishes in the background
// and its result is dropped.
func Execute(ctx context.Context, f *fst.FST, db *seqdb.Database, sigma int64, opts ExecOptions) ([]miner.Pattern, mapreduce.Metrics, ExecStats, error) {
	return execute(ctx, f, db, sigma, opts, nil, nil)
}

// execute is Execute with a completion hook and a source of prepared state.
// onDone (when non-nil) is called exactly once, after the mining goroutine has
// actually finished — even when the call itself returned early on context
// cancellation. Callers use it to hold resources (concurrency slots, dataset
// leases) for the true lifetime of the work rather than the lifetime of the
// request. With prepared non-nil a dfs query is "get or build the state, mine
// it at sigma"; with nil (Execute) it is the pooled one-shot miner.MineDFS.
func execute(ctx context.Context, f *fst.FST, db *seqdb.Database, sigma int64, opts ExecOptions, onDone func(), prepared preparedSource) ([]miner.Pattern, mapreduce.Metrics, ExecStats, error) {
	fail := func(err error) ([]miner.Pattern, mapreduce.Metrics, ExecStats, error) {
		if onDone != nil {
			onDone()
		}
		return nil, mapreduce.Metrics{}, ExecStats{}, err
	}
	if sigma <= 0 {
		return fail(fmt.Errorf("minimum support must be positive, got %d", sigma))
	}
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	type jobResult struct {
		patterns []miner.Pattern
		metrics  mapreduce.Metrics
		stats    ExecStats
		err      error
	}
	ch := make(chan jobResult, 1)
	go func() {
		var r jobResult
		// mineCluster and mineDistributed each check alone which algorithms
		// they run: a cluster rejects the rest rather than silently running
		// them locally.
		switch a := opts.Algorithm; {
		case opts.Cluster != nil:
			r.patterns, r.metrics, r.stats, r.err = mineCluster(ctx, db, sigma, opts)
		case a == AlgoDFS, a == AlgoCount:
			r.patterns, r.stats, r.err = mineSequential(ctx, f, db, sigma, a, workers, prepared)
		default:
			r.patterns, r.metrics, r.stats, r.err = mineDistributed(ctx, f, db, sigma, opts, workers)
		}
		if r.stats.Prepared == "" {
			r.stats.Prepared = PreparedNone
		}
		ch <- r
		if onDone != nil {
			onDone()
		}
	}()
	select {
	case <-ctx.Done():
		return nil, mapreduce.Metrics{}, ExecStats{}, ctx.Err()
	case r := <-ch:
		return r.patterns, r.metrics, r.stats, r.err
	}
}

// mineDistributed runs one of the BSP algorithms whole-database and rejects
// any other algorithm name. The context is threaded into the engine for
// cooperative cancellation and trace-span recording (the mapreduce.run span
// and its stage children parent under the caller's service.mine span when the
// context carries a recorder).
func mineDistributed(ctx context.Context, f *fst.FST, db *seqdb.Database, sigma int64, opts ExecOptions, workers int) ([]miner.Pattern, mapreduce.Metrics, ExecStats, error) {
	cfg := mapreduce.Config{
		MapWorkers:    workers,
		ReduceWorkers: workers,
		Shuffle:       opts.ShuffleConfig,
		Context:       ctx,
		Obs:           opts.Obs,
	}
	var (
		patterns []miner.Pattern
		metrics  mapreduce.Metrics
		err      error
	)
	switch opts.Algorithm {
	case "", AlgoDSeq:
		patterns, metrics, err = dseq.Mine(f, db.Sequences, sigma, dseq.DefaultOptions(), cfg, nil)
	case AlgoDCand:
		patterns, metrics, err = dcand.Mine(f, db.Sequences, sigma, dcand.DefaultOptions(), cfg, nil)
	case AlgoNaive:
		patterns, metrics, err = naive.Mine(f, db.Sequences, sigma, naive.Naive, cfg)
	case AlgoSemiNaive:
		patterns, metrics, err = naive.Mine(f, db.Sequences, sigma, naive.SemiNaive, cfg)
	default:
		err = fmt.Errorf("unknown algorithm %q", opts.Algorithm)
	}
	if err != nil {
		return nil, metrics, ExecStats{}, err
	}
	return patterns, metrics, ExecStats{Shards: 1, SplitStats: miner.SplitStats{Workers: workers}}, nil
}

// mineCluster fans a distributed backend out across worker processes: the
// coordinator splits the database over the configured workers, which shuffle
// among themselves over the TCP transport and return their pivot partitions'
// patterns. The merged metrics report real socket traffic as ShuffleBytes.
func mineCluster(ctx context.Context, db *seqdb.Database, sigma int64, opts ExecOptions) ([]miner.Pattern, mapreduce.Metrics, ExecStats, error) {
	p := opts.Plan
	switch p.Algorithm {
	case "":
		p.Algorithm = AlgoDSeq
	case AlgoDSeq, AlgoDCand:
	default:
		return nil, mapreduce.Metrics{}, ExecStats{}, fmt.Errorf("algorithm %q cannot run on a worker cluster (want %s or %s)", p.Algorithm, AlgoDSeq, AlgoDCand)
	}
	if opts.Cluster.Expression == "" {
		return nil, mapreduce.Metrics{}, ExecStats{}, fmt.Errorf("cluster execution requires the pattern expression")
	}
	coord := &cluster.Coordinator{Workers: opts.Cluster.Workers, Obs: opts.Obs}
	res, err := coord.Mine(ctx, db, opts.Cluster.Expression, sigma, p)
	if err != nil {
		return nil, mapreduce.Metrics{}, ExecStats{}, err
	}
	stats := ExecStats{
		Shards: len(opts.Cluster.Workers),
		Cluster: &ClusterStats{
			Tasks:         res.Tasks,
			Attempts:      res.Attempts,
			Retries:       res.Retries,
			DeadWorkers:   len(res.DeadWorkers),
			StoreHits:     res.StoreHits,
			StoreMisses:   res.StoreMisses,
			StorePutBytes: res.StorePutBytes,
		},
	}
	return res.Patterns, res.Metrics, stats, nil
}

// mineSequential runs DESQ-DFS or DESQ-COUNT over the whole database on
// workers goroutines; the parallelism is the miner's own (miner.MineDFS). A dfs
// query with a prepared source mines the source's state at sigma instead of
// setting the database up again.
func mineSequential(ctx context.Context, f *fst.FST, db *seqdb.Database, sigma int64, algo Algorithm, workers int, prepared preparedSource) ([]miner.Pattern, ExecStats, error) {
	stats := ExecStats{Shards: 1}
	var patterns []miner.Pattern
	switch {
	case algo == AlgoCount:
		patterns = miner.MineCount(ctx, f, miner.Weighted(db.Sequences), sigma, workers)
		stats.Workers = max(1, min(workers, len(db.Sequences)))
	case prepared != nil:
		start := time.Now()
		p, built, err := prepared(ctx, workers)
		if err != nil {
			return nil, ExecStats{}, err
		}
		stats.Prepared = PreparedHit
		if built {
			stats.Prepared = PreparedBuilt
			stats.PrepareMS = float64(time.Since(start)) / float64(time.Millisecond)
		}
		patterns = p.Mine(ctx, sigma, workers, &stats.SplitStats)
	default:
		patterns = miner.MineDFS(f, miner.Weighted(db.Sequences), sigma, miner.DFSOptions{Workers: workers, Context: ctx, Split: &stats.SplitStats})
	}
	if err := ctx.Err(); err != nil {
		return nil, ExecStats{}, err
	}
	return patterns, stats, nil
}
