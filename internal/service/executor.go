package service

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"seqmine/internal/cluster"
	"seqmine/internal/dcand"
	"seqmine/internal/dict"
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

// DefaultExecOptions mirrors seqmine.DefaultOptions: D-SEQ, every knob unset.
func DefaultExecOptions() ExecOptions {
	return ExecOptions{Plan: plan.Plan{Algorithm: AlgoDSeq}}
}

// ExecStats describes how a query was executed.
type ExecStats struct {
	// Shards is the number of database partitions mined (1 when the backend
	// ran unpartitioned).
	Shards int `json:"shards"`
	// Candidates is the size of the candidate superset produced by phase one
	// of two-phase sharded mining (0 for unpartitioned backends).
	Candidates int `json:"candidates"`
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
	// relaunches after failures and SpeculativeAttempts counts straggler
	// races.
	Attempts            int `json:"attempts"`
	Retries             int `json:"retries"`
	SpeculativeAttempts int `json:"speculative_attempts"`
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

// Execute runs one mining job. The sequential backends (dfs, count) run as a
// two-phase partitioned job over a bounded worker pool: phase one mines every
// shard with a proportionally scaled local threshold (SON-style — any
// globally frequent pattern is locally frequent in at least one shard), phase
// two recounts the exact global support of the candidate superset and filters
// by sigma, so the result is identical to the sequential miner on the whole
// database. (Phase two counts by candidate enumeration, DESQ-COUNT style, so
// for very loose constraints on long sequences Shards=1 or a distributed
// backend is the better choice.) The distributed backends (dseq, dcand,
// naive, seminaive) already partition internally by pivot item and run on the
// in-process BSP engine with Workers map/reduce workers.
//
// Cancellation: the job runs in a goroutine and the call returns ctx.Err()
// as soon as the context is done. Shard workers notice cancellation at shard
// boundaries and the BSP engine at input granularity in the map phase and
// between key groups in the reduce phase (mapreduce.Config.Context); the unit
// in flight — one shard, one map input, one reduce call — finishes in the
// background and its result is dropped.
func Execute(ctx context.Context, f *fst.FST, db *seqdb.Database, sigma int64, opts ExecOptions) ([]miner.Pattern, mapreduce.Metrics, ExecStats, error) {
	return execute(ctx, f, db, sigma, opts, nil)
}

// execute is Execute with a completion hook: onDone (when non-nil) is called
// exactly once, after the mining goroutine has actually finished — even when
// the call itself returned early on context cancellation. Callers use it to
// hold resources (concurrency slots, dataset leases) for the true lifetime
// of the work rather than the lifetime of the request.
func execute(ctx context.Context, f *fst.FST, db *seqdb.Database, sigma int64, opts ExecOptions, onDone func()) ([]miner.Pattern, mapreduce.Metrics, ExecStats, error) {
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
		switch opts.Algorithm {
		case AlgoDFS, AlgoCount:
			if opts.Cluster != nil {
				// Reject rather than silently running locally: the caller
				// asked for cluster execution and would misread the local
				// metrics as cluster metrics.
				r.err = fmt.Errorf("algorithm %q cannot run on a worker cluster (want %s or %s)", opts.Algorithm, AlgoDSeq, AlgoDCand)
			} else {
				r.patterns, r.metrics, r.stats, r.err = mineSharded(ctx, f, db, sigma, opts, workers)
			}
		case "", AlgoDSeq, AlgoDCand, AlgoNaive, AlgoSemiNaive:
			if opts.Cluster != nil {
				r.patterns, r.metrics, r.stats, r.err = mineCluster(ctx, db, sigma, opts)
			} else {
				r.patterns, r.metrics, r.stats, r.err = mineDistributed(ctx, f, db, sigma, opts, workers)
			}
		default:
			r.err = fmt.Errorf("unknown algorithm %q", opts.Algorithm)
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

// mineDistributed runs one of the BSP algorithms whole-database. The context
// is threaded into the engine for cooperative cancellation and trace-span
// recording (the mapreduce.run span and its stage children parent under the
// caller's service.mine span when the context carries a recorder).
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
		patterns, metrics, err = dseq.MineLocal(f, db.Sequences, sigma, dseq.DefaultOptions(), cfg)
	case AlgoDCand:
		patterns, metrics, err = dcand.MineLocal(f, db.Sequences, sigma, dcand.DefaultOptions(), cfg)
	case AlgoNaive:
		patterns, metrics, err = naive.MineLocal(f, db.Sequences, sigma, naive.Naive, cfg)
	case AlgoSemiNaive:
		patterns, metrics, err = naive.MineLocal(f, db.Sequences, sigma, naive.SemiNaive, cfg)
	}
	if err != nil {
		return nil, metrics, ExecStats{}, err
	}
	return patterns, metrics, ExecStats{Shards: 1}, nil
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
			Tasks:               res.Tasks,
			Attempts:            res.Attempts,
			Retries:             res.Retries,
			SpeculativeAttempts: res.SpeculativeAttempts,
			DeadWorkers:         len(res.DeadWorkers),
			StoreHits:           res.StoreHits,
			StoreMisses:         res.StoreMisses,
			StorePutBytes:       res.StorePutBytes,
		},
	}
	return res.Patterns, res.Metrics, stats, nil
}

// mineSharded is the two-phase partitioned executor for the sequential
// backends.
func mineSharded(ctx context.Context, f *fst.FST, db *seqdb.Database, sigma int64, opts ExecOptions, workers int) ([]miner.Pattern, mapreduce.Metrics, ExecStats, error) {
	shards := opts.Shards
	if shards <= 0 {
		shards = workers
	}
	if shards > len(db.Sequences) {
		shards = len(db.Sequences)
	}
	if shards <= 1 {
		// Single shard: run the backend directly with the global threshold.
		patterns, err := mineShardDirect(ctx, f, miner.Weighted(db.Sequences), sigma, opts.Algorithm)
		return patterns, mapreduce.Metrics{}, ExecStats{Shards: 1}, err
	}

	parts := splitSequences(db.Sequences, shards)
	total := int64(len(db.Sequences))

	// Phase 1: mine each shard with the scaled local threshold. A pattern
	// with global support >= sigma has support >= ceil(sigma*|shard|/|db|)
	// in at least one shard, so the union is a superset of the answer.
	partials := make([][]miner.Pattern, len(parts))
	err := runPool(ctx, workers, len(parts), func(i int) error {
		local := (sigma*int64(len(parts[i])) + total - 1) / total
		if local < 1 {
			local = 1
		}
		ps, err := mineShardDirect(ctx, f, miner.Weighted(parts[i]), local, opts.Algorithm)
		partials[i] = ps
		return err
	})
	if err != nil {
		return nil, mapreduce.Metrics{}, ExecStats{}, err
	}

	candidates := make(map[string]bool)
	shapes := make(map[string][]dict.ItemID)
	for _, ps := range partials {
		for _, p := range ps {
			k := miner.Key(p.Items)
			if !candidates[k] {
				candidates[k] = true
				shapes[k] = p.Items
			}
		}
	}
	stats := ExecStats{Shards: len(parts), Candidates: len(candidates)}

	// Phase 2: exact support of every candidate, counted per shard in
	// parallel and summed.
	counts := make([]map[string]int64, len(parts))
	err = runPool(ctx, workers, len(parts), func(i int) error {
		counts[i] = miner.SupportOf(f, miner.Weighted(parts[i]), sigma, candidates)
		return nil
	})
	if err != nil {
		return nil, mapreduce.Metrics{}, stats, err
	}
	totals := make(map[string]int64, len(candidates))
	for _, m := range counts {
		for k, c := range m {
			totals[k] += c
		}
	}
	var out []miner.Pattern
	for k, c := range totals {
		if c >= sigma {
			out = append(out, miner.Pattern{Items: shapes[k], Freq: c})
		}
	}
	miner.SortPatterns(out)
	return out, mapreduce.Metrics{}, stats, nil
}

// mineShardDirect runs a sequential backend on one partition.
func mineShardDirect(ctx context.Context, f *fst.FST, part []miner.WeightedSequence, sigma int64, algo Algorithm) ([]miner.Pattern, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch algo {
	case AlgoDFS:
		return miner.MineDFS(f, part, sigma, miner.DFSOptions{}), nil
	case AlgoCount:
		return miner.MineCount(f, part, sigma), nil
	default:
		return nil, fmt.Errorf("algorithm %q is not a sequential backend", algo)
	}
}

// splitSequences partitions the database round-robin into n parts so skewed
// prefixes (e.g. sorted inputs) spread evenly.
func splitSequences(seqs [][]dict.ItemID, n int) [][][]dict.ItemID {
	parts := make([][][]dict.ItemID, n)
	for i, s := range seqs {
		parts[i%n] = append(parts[i%n], s)
	}
	return parts
}

// runPool executes tasks 0..n-1 on at most workers goroutines (strided
// assignment, like the mapreduce engine's map phase), stopping early on the
// first error or context cancellation.
func runPool(ctx context.Context, workers, n int, task func(i int) error) error {
	if workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if failed() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				if err := task(i); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}
