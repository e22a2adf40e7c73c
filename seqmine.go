// Package seqmine is a library for scalable frequent sequence mining with
// flexible subsequence constraints. It reproduces the system described in
// "Scalable Frequent Sequence Mining with Flexible Subsequence Constraints"
// (Renz-Wieland, Bertsch, Gemulla; ICDE 2019): subsequence constraints are
// stated in the DESQ pattern-expression language (regular expressions with
// capture groups, item hierarchies and generalization), and mining can run
// either sequentially (DESQ-DFS / DESQ-COUNT) or distributed over a bulk
// synchronous parallel engine with one round of communication using the
// D-SEQ and D-CAND algorithms of the paper (plus the NAIVE and SEMI-NAIVE
// baselines).
//
// A minimal end-to-end use looks like this:
//
//	db, _ := seqmine.BuildDatabase(rawSequences, hierarchy)
//	result, _ := seqmine.Mine(db, ".*(A)[(.^)|.]*(b).*", 2, seqmine.DefaultOptions())
//	for _, p := range result.Patterns {
//	    fmt.Println(seqmine.DecodePattern(db, p), p.Freq)
//	}
//
// For repeated queries, NewService returns a long-lived mining service with
// a dataset registry, a compiled-pattern cache (identical queries compile the
// FST once) and a parallel executor; the seqmined daemon (cmd/seqmined)
// exposes the same service over HTTP.
//
// See the examples directory for complete programs and DESIGN.md for the
// mapping between the paper and the packages of this repository, including
// the service layer and its HTTP API.
package seqmine

import (
	"context"
	"fmt"
	"time"

	"seqmine/internal/datagen"
	"seqmine/internal/dict"
	"seqmine/internal/fst"
	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
	"seqmine/internal/plan"
	"seqmine/internal/seqdb"
	"seqmine/internal/service"
)

// ItemID identifies an item by its frequency rank; see the dict package.
type ItemID = dict.ItemID

// Dictionary is the vocabulary with hierarchy and document frequencies.
type Dictionary = dict.Dictionary

// Hierarchy maps an item to the names of its direct generalizations.
type Hierarchy = seqdb.Hierarchy

// Database is a sequence database together with its dictionary.
type Database = seqdb.Database

// Stats summarizes a database (Table II of the paper).
type Stats = seqdb.Stats

// Pattern is a mined frequent sequence with its frequency.
type Pattern = miner.Pattern

// Metrics describes the execution of a distributed mining job (stage times,
// shuffle volume, partition counts).
type Metrics = mapreduce.Metrics

// Algorithm selects the mining algorithm.
type Algorithm int

const (
	// SequentialDFS is the sequential DESQ-DFS pattern-growth miner.
	SequentialDFS Algorithm = iota
	// SequentialCount is the sequential DESQ-COUNT miner (enumerate and
	// count).
	SequentialCount
	// DSeq is the distributed algorithm with sequence representation.
	DSeq
	// DCand is the distributed algorithm with candidate (NFA) representation.
	DCand
	// Naive is the distributed word-count style baseline over all candidates.
	Naive
	// SemiNaive is Naive restricted to candidates of frequent items.
	SemiNaive
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case SequentialDFS:
		return "DESQ-DFS"
	case SequentialCount:
		return "DESQ-COUNT"
	case DSeq:
		return "D-SEQ"
	case DCand:
		return "D-CAND"
	case Naive:
		return "Naive"
	case SemiNaive:
		return "SemiNaive"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Knobs are the execution knobs shared by every layer of the system — the
// shuffle bounds (SpillThreshold, SpillTmpDir, SendBufferBytes,
// CompressSpill) and the cluster scheduler's TaskRetries. They are declared
// once, in internal/plan, under the same names the CLIs' flags and the
// daemon's POST /mine fields use; the zero value mines in memory behind the phase
// barrier with the scheduler's built-in retry budget.
type Knobs = plan.Knobs

// Options configures Mine.
type Options struct {
	// Algorithm selects the miner (default D-SEQ).
	Algorithm Algorithm
	// Workers is the parallelism of every algorithm (map and reduce workers
	// of the distributed ones, mining goroutines of DFS and Count); 0 uses
	// all CPUs.
	Workers int
	// ClusterWorkers, when non-empty, runs the distributed algorithms
	// (DSeq, DCand) across these seqmine-worker processes (control URLs)
	// with the fault-tolerant cluster scheduler instead of the in-process
	// engine: the input is pushed once per worker into the shared dataset
	// store and failed attempts are retried on the surviving workers.
	ClusterWorkers []string

	// Knobs tune the execution; through Service.Mine, unset knobs inherit
	// the service's defaults (ServiceOptions.Knobs).
	Knobs
}

// DefaultOptions returns the recommended configuration: D-SEQ with one
// worker per CPU. (The paper's enhancements — grid, rewriting, early
// stopping, NFA minimization and aggregation — are always on.)
func DefaultOptions() Options {
	return Options{Algorithm: DSeq}
}

// Result is the outcome of a mining run.
type Result struct {
	// Patterns are the frequent sequences, sorted by decreasing frequency.
	Patterns []Pattern
	// Metrics describes the distributed execution; it is zero for the
	// sequential algorithms.
	Metrics Metrics
}

// Constraint is a compiled subsequence constraint bound to a database's
// dictionary.
type Constraint struct {
	expression string
	fst        *fst.FST
}

// Expression returns the pattern expression the constraint was compiled from.
func (c *Constraint) Expression() string { return c.expression }

// BuildDatabase constructs a database (and its dictionary/f-list) from raw
// sequences of item names and an item hierarchy.
func BuildDatabase(raw [][]string, hierarchy Hierarchy) (*Database, error) {
	return seqdb.Build(raw, hierarchy)
}

// ReadDatabaseFiles loads a database from a sequence file (one sequence per
// line, space-separated items) and an optional hierarchy file
// ("child<TAB>parent1,parent2" per line; empty path for no hierarchy).
func ReadDatabaseFiles(sequencesPath, hierarchyPath string) (*Database, error) {
	return seqdb.ReadFiles(sequencesPath, hierarchyPath)
}

// CompileConstraint parses and compiles a pattern expression against the
// database's dictionary.
func CompileConstraint(db *Database, expression string) (*Constraint, error) {
	f, err := fst.Compile(expression, db.Dict)
	if err != nil {
		return nil, err
	}
	return &Constraint{expression: expression, fst: f}, nil
}

// Mine compiles the pattern expression and mines the database for frequent
// sequences with minimum support sigma.
func Mine(db *Database, expression string, sigma int64, opts Options) (*Result, error) {
	c, err := CompileConstraint(db, expression)
	if err != nil {
		return nil, err
	}
	return MineConstraint(db, c, sigma, opts)
}

// MineConstraint mines the database with a previously compiled constraint.
// The backend dispatch is shared with the service layer (internal/service):
// DESQ-DFS and DESQ-COUNT mine on opts.Workers goroutines and return exactly
// the single-threaded result.
func MineConstraint(db *Database, c *Constraint, sigma int64, opts Options) (*Result, error) {
	eo := opts.query()
	if eo.Cluster != nil {
		eo.Cluster.Expression = c.expression
	}
	patterns, metrics, _, err := service.Execute(context.Background(), c.fst, db, sigma, eo)
	if err != nil {
		return nil, fmt.Errorf("seqmine: %w", err)
	}
	return &Result{Patterns: patterns, Metrics: metrics}, nil
}

// query assembles the service layer's query plan from the options.
func (o Options) query() service.ExecOptions {
	eo := service.ExecOptions{Plan: plan.Plan{
		Algorithm: o.Algorithm.serviceName(),
		Workers:   o.Workers,
		Knobs:     o.Knobs,
	}}
	if len(o.ClusterWorkers) > 0 {
		eo.Cluster = &service.ClusterOptions{Workers: o.ClusterWorkers}
	}
	return eo
}

// DecodePattern renders a mined pattern as a space-separated string of item
// names.
func DecodePattern(db *Database, p Pattern) string {
	return db.Dict.DecodeString(p.Items)
}

// PatternsAsMap converts mined patterns to a map keyed by the decoded pattern
// string.
func PatternsAsMap(db *Database, ps []Pattern) map[string]int64 {
	return miner.PatternsToMap(db.Dict, ps)
}

// CountMatches returns how many input sequences satisfy the constraint (have
// at least one candidate subsequence) — the "matched sequences" statistic of
// Table IV.
func CountMatches(db *Database, c *Constraint) int {
	n := 0
	for _, T := range db.Sequences {
		if c.fst.CanAccept(T) {
			n++
		}
	}
	return n
}

// QueryMetrics describes the execution of one service query (compile/mine
// time, cache hit, how the work was split).
type QueryMetrics = service.QueryMetrics

// ServiceMetrics is a snapshot of a service's aggregate metrics (queries
// served, cache hit rate, per-dataset info).
type ServiceMetrics = service.Snapshot

// ServiceOptions configures NewService.
type ServiceOptions struct {
	// CacheSize is the capacity (entries) of the compiled-pattern cache;
	// 0 means 128.
	CacheSize int
	// Workers bounds each query's worker pool when the query does not set
	// its own; 0 uses all CPUs.
	Workers int
	// MaxConcurrent bounds the number of queries mining at once; 0 means
	// unbounded. Excess queries wait in the bounded admission queue
	// (QueueDepth) and past that are shed with an overload error.
	MaxConcurrent int
	// QueueDepth is the admission queue bound: how many queries may wait for
	// a mining slot before the service sheds load. 0 defaults to
	// 4×MaxConcurrent; negative means no waiting room. Ignored when
	// MaxConcurrent is 0.
	QueueDepth int
	// ResultCacheSize is the capacity (entries) of the mined-result cache,
	// keyed by (dataset generation, expression, sigma, algorithm); 0 disables
	// result caching.
	ResultCacheSize int
	// DefaultTimeout is the per-query deadline applied when the caller's
	// context has none; 0 means no default deadline.
	DefaultTimeout time.Duration
	// ClusterWorkers are the control URLs of a default worker cluster for
	// queries that request distributed execution.
	ClusterWorkers []string
	// Knobs are the service-wide defaults of the execution knobs: a query's
	// unset knobs (0, "", false) inherit them, a negative per-query value
	// turns the feature off regardless.
	Knobs
}

// Service is a long-lived, concurrency-safe mining service: it holds named
// datasets, caches compiled FSTs across queries (with singleflight
// deduplication of concurrent identical compilations) and mines queries over
// a parallel executor. It is the library-level counterpart of the
// seqmined daemon.
type Service struct {
	inner *service.Service
}

// NewService creates a mining service.
func NewService(opts ServiceOptions) *Service {
	return &Service{inner: service.New(service.Config{
		CacheSize:       opts.CacheSize,
		Workers:         opts.Workers,
		MaxConcurrent:   opts.MaxConcurrent,
		QueueDepth:      opts.QueueDepth,
		ResultCacheSize: opts.ResultCacheSize,
		DefaultTimeout:  opts.DefaultTimeout,
		ClusterWorkers:  opts.ClusterWorkers,
		Knobs:           opts.Knobs,
	})}
}

// RegisterDatabase adds (or replaces) a database under the given name.
func (s *Service) RegisterDatabase(name string, db *Database) error {
	_, err := s.inner.RegisterDataset(name, db)
	return err
}

// LoadDataset reads a database from a sequence file (and optional hierarchy
// file) and registers it under name.
func (s *Service) LoadDataset(name, sequencesPath, hierarchyPath string) error {
	_, err := s.inner.LoadDataset(name, sequencesPath, hierarchyPath)
	return err
}

// RemoveDataset unregisters a dataset; in-flight queries are unaffected.
func (s *Service) RemoveDataset(name string) bool { return s.inner.RemoveDataset(name) }

// Mine runs one query against a registered dataset. Repeated queries with
// the same expression reuse the cached compiled FST; execution runs on the
// service's worker pool and honors ctx cancellation and deadlines. The
// returned patterns are the caller's own: editing them cannot change what the
// result cache serves the next identical query.
func (s *Service) Mine(ctx context.Context, dataset, expression string, sigma int64, opts Options) (*Result, QueryMetrics, error) {
	resp, err := s.inner.Mine(ctx, service.Query{
		Dataset:    dataset,
		Expression: expression,
		Sigma:      sigma,
		Options:    opts.query(),
	})
	if err != nil {
		return nil, QueryMetrics{}, err
	}
	return &Result{Patterns: clonePatterns(resp.Patterns), Metrics: resp.Metrics.MapReduce}, resp.Metrics, nil
}

// clonePatterns copies ps, with one backing array for all of their items.
func clonePatterns(ps []Pattern) []Pattern {
	n := 0
	for _, p := range ps {
		n += len(p.Items)
	}
	items := make([]dict.ItemID, 0, n)
	out := make([]Pattern, len(ps))
	for i, p := range ps {
		items = append(items, p.Items...)
		out[i] = Pattern{Items: items[len(items)-len(p.Items) : len(items) : len(items)], Freq: p.Freq}
	}
	return out
}

// Metrics returns a snapshot of the service's aggregate metrics.
func (s *Service) Metrics() ServiceMetrics { return s.inner.Metrics() }

// serviceName maps the Algorithm enum to the service layer's wire names.
func (a Algorithm) serviceName() service.Algorithm {
	switch a {
	case SequentialDFS:
		return service.AlgoDFS
	case SequentialCount:
		return service.AlgoCount
	case DSeq:
		return service.AlgoDSeq
	case DCand:
		return service.AlgoDCand
	case Naive:
		return service.AlgoNaive
	case SemiNaive:
		return service.AlgoSemiNaive
	default:
		return service.Algorithm(fmt.Sprintf("algorithm(%d)", int(a)))
	}
}

// GenerateNYTLike generates the synthetic NYT-like text corpus (see the
// datagen package) with the given number of sentences and seed.
func GenerateNYTLike(numSentences int, seed int64) (*Database, error) {
	return datagen.NYT(datagen.NYTConfig{NumSentences: numSentences, Seed: seed})
}

// GenerateAmazonLike generates the synthetic AMZN-like market-basket dataset.
// With forest == true the hierarchy is restricted to a forest (AMZN-F).
func GenerateAmazonLike(numCustomers int, seed int64, forest bool) (*Database, error) {
	return datagen.Amazon(datagen.AmazonConfig{NumCustomers: numCustomers, Seed: seed, Forest: forest})
}

// GenerateClueWebLike generates the synthetic CW-like plain-text corpus
// without a hierarchy.
func GenerateClueWebLike(numSentences int, seed int64) (*Database, error) {
	return datagen.ClueWeb(datagen.ClueWebConfig{NumSentences: numSentences, Seed: seed})
}
