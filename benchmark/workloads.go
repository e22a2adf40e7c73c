package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"seqmine/internal/cluster"
	"seqmine/internal/datagen"
	"seqmine/internal/dict"
	"seqmine/internal/experiments"
	"seqmine/internal/fst"
	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
	"seqmine/internal/obs"
	"seqmine/internal/seqdb"
	"seqmine/internal/service"
	"seqmine/internal/transport"
)

// datasetSeeds is how many generator seeds one benchmark seed owns: dataset i
// of seed s is drawn with s*datasetSeeds+i, whatever the workload.
const datasetSeeds = 1000

// engineWorkers is the parallelism of every engine and the cap on client
// goroutines: the host this benchmark was sized on has two cores.
const engineWorkers = 2

type query struct {
	DB    int // index of the dataset
	Expr  string
	Sigma int64
}

func (q query) String() string { return fmt.Sprintf("db%d %s @%d", q.DB, q.Expr, q.Sigma) }

// workload is one set of inputs and the way they are driven. Sizes are the
// full-scale defaults; -smoke runs a quarter of Size with sigmas scaled to
// match.
type workload struct {
	Name string
	// Gen generates the raw sequences and hierarchy from a seed.
	Gen  func(n int, seed int64) ([][]string, seqdb.Hierarchy)
	Size int
	// Datasets is how many datasets of that size are drawn from the seed and
	// mined in turn. How long a loose constraint takes to mine differs from
	// one draw of the AMZN-like generator to the next with a standard
	// deviation of 16% (the size of the largest pivot partition decides what
	// two reduce workers can share), so the loose workloads cycle over many
	// draws: a run then measures the generator, not one draw. dcand-loose,
	// whose jobs take five times as long, mines the first third of
	// dseq-loose's draws, so that its window too holds several cycles.
	Datasets int
	// Datasets x Exprs x Sigmas are the distinct queries, the sigmas
	// ascending and the datasets innermost.
	Exprs  []string
	Sigmas []int64
	// RepeatEvery is 0 when one schedule cycle is every query once, in order.
	// Otherwise the cycle visits the queries in a seeded order and repeats a
	// recent one after every RepeatEvery-th: see schedule.
	RepeatEvery int
	Clients     int
	// WarmJobs run untimed at the end of set-up, TracedJobs in the traced pass.
	WarmJobs, TracedJobs int
	// Start brings the system under test up around db.
	Start func(w *workload, dbs []*seqdb.Database, rec *obs.Recorder, cfg runConfig) (*env, error)
	// Check asserts that a job exercised the layers this workload exists for.
	Check func(r *jobResult) error
}

var workloads = []*workload{
	{
		Name: "dseq-loose",
		Gen:  genAmazon,
		Size: 2500, Datasets: 48, Exprs: []string{experiments.T3Expr(1, 5)}, Sigmas: []int64{31},
		Clients: 1, WarmJobs: 16, TracedJobs: 96,
		Start: startLibrary(service.AlgoDSeq),
		Check: checkBarrier,
	},
	{
		Name: "dcand-loose",
		Gen:  genAmazon,
		Size: 2500, Datasets: 16, Exprs: []string{experiments.T3Expr(1, 5)}, Sigmas: []int64{31},
		Clients: 1, WarmJobs: 4, TracedJobs: 32,
		Start: startLibrary(service.AlgoDCand),
		Check: checkBarrier,
	},
	{
		Name: "serve-selective",
		Gen: func(n int, seed int64) ([][]string, seqdb.Hierarchy) {
			return datagen.NYTRaw(datagen.NYTConfig{NumSentences: n, Seed: seed})
		},
		Size: 30000, Datasets: 1,
		Exprs:       []string{experiments.N1Expr, experiments.N2Expr, experiments.N3Expr},
		Sigmas:      []int64{8, 10, 12, 16, 20, 24, 32, 40, 48, 64, 80, 100},
		RepeatEvery: 3, Clients: 2, WarmJobs: 48, TracedJobs: 144,
		Start: startService,
		Check: func(r *jobResult) error {
			if r.Shed {
				return fmt.Errorf("request shed")
			}
			if r.MR.MapOutputRecords != 0 || r.MR.ShuffleBytes != 0 || r.MR.Partitions != 0 {
				return fmt.Errorf("sharded DFS reported mapreduce activity: %+v", r.MR)
			}
			return nil
		},
	},
	{
		Name: "cluster-stream",
		Gen: func(n int, seed int64) ([][]string, seqdb.Hierarchy) {
			return datagen.ClueWebRaw(datagen.ClueWebConfig{NumSentences: n, Seed: seed})
		},
		Size: 4000, Datasets: 4, Exprs: []string{experiments.T2Expr(0, 5)}, Sigmas: []int64{8},
		Clients: 1, WarmJobs: 8, TracedJobs: 32,
		Start: startCluster,
		Check: func(r *jobResult) error {
			switch {
			case r.Exec.Cluster == nil:
				return fmt.Errorf("job did not run on the cluster")
			case r.Exec.Cluster.Retries > 0:
				return fmt.Errorf("cluster retried %d attempts", r.Exec.Cluster.Retries)
			case r.MR.SpilledBytes <= 0 || r.MR.StreamedBatches <= 0:
				return fmt.Errorf("streaming/spill path idle: spilled=%d streamed=%d", r.MR.SpilledBytes, r.MR.StreamedBatches)
			case !r.MR.RemoteShuffle || r.MR.ShuffleBytes <= 0:
				return fmt.Errorf("no wire bytes")
			}
			return nil
		},
	},
}

func genAmazon(n int, seed int64) ([][]string, seqdb.Hierarchy) {
	return datagen.AmazonRaw(datagen.AmazonConfig{NumCustomers: n, Seed: seed, Forest: true})
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// checkBarrier asserts the in-process barrier path: a mapreduce round ran and
// nothing streamed or spilled.
func checkBarrier(r *jobResult) error {
	switch {
	case r.MR.ShuffleRecords <= 0:
		return fmt.Errorf("no shuffle records")
	case r.MR.SpilledBytes != 0 || r.MR.StreamedBatches != 0 || r.MR.RemoteShuffle:
		return fmt.Errorf("barrier path spilled/streamed: %+v", r.MR)
	}
	return nil
}

// scaled returns the workload's size and queries at the given data scale.
func (w *workload) scaled(scale float64) (int, []query) {
	n := int(math.Round(float64(w.Size) * scale))
	qs := make([]query, 0, w.Datasets*len(w.Exprs)*len(w.Sigmas))
	for _, s := range w.Sigmas {
		sigma := int64(math.Round(float64(s) * scale))
		if sigma < 2 {
			sigma = 2
		}
		for _, e := range w.Exprs {
			for db := 0; db < w.Datasets; db++ {
				qs = append(qs, query{db, e, sigma})
			}
		}
	}
	return n, qs
}

// schedule returns one cycle of query indices for the seed.
func (w *workload) schedule(numQueries int, seed int64) []int {
	if w.RepeatEvery == 0 {
		out := make([]int, numQueries)
		for i := range out {
			out[i] = i
		}
		return out
	}
	// New queries come in the order of a seeded permutation, so that from one
	// cycle to the next a query returns only after every other one: far
	// beyond the result cache. After every RepeatEvery-th new query comes a repeat of one
	// issued 3 to 5 new queries earlier: recent enough to be cached still, old
	// enough to have been answered by the time the repeat is sent. The share
	// of cache hits is thus the same 1/(RepeatEvery+1) for every seed; the
	// seed decides which queries meet and in what order.
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(numQueries)
	var out []int
	for fresh := 1; fresh <= numQueries; fresh++ {
		out = append(out, perm[fresh-1])
		if fresh%w.RepeatEvery == 0 {
			back := 3 + rng.Intn(3)
			out = append(out, perm[(fresh-1-back+numQueries)%numQueries])
		}
	}
	return out
}

// jobResult is what one job returned, as read from the structs the layers
// already hand back.
type jobResult struct {
	Elapsed time.Duration // the caller's wait, excluding the answer check
	// End, CPUEnd and AllocEnd are the wall clock, the process's CPU time and
	// its allocated bytes when the job's answer had been checked; drive sets
	// them.
	End      time.Time
	CPUEnd   time.Duration
	AllocEnd uint64
	Hash     uint64 // canonical answer hash
	Patterns int
	Compile  time.Duration // fst.Compile, or QueryMetrics.CompileTime
	Mine     time.Duration // QueryMetrics.MineTime (service only)
	MR       mapreduce.Metrics
	Exec     service.ExecStats
	// Service-only.
	FSTCacheHit, ResultCacheHit, Shed bool
	ResponseBytes                     int
	Trace                             obs.TraceID
}

// env is a running system under test.
type env struct {
	dbs   []*seqdb.Database
	job   func(ctx context.Context, q query) (*jobResult, error)
	close func()
	// svc is set by serve-selective for the service snapshot.
	svc *service.Service
}

// hashAnswer is the canonical answer hash: an order-independent sum over the
// patterns of a hash of the decoded item names and the support. It equals
// hashing the sorted decoded list, without the sort or the allocation.
type answerHash struct {
	sum uint64
	n   int
}

func (a *answerHash) add(freq int64, numItems int, name func(i int) string) {
	h := uint64(14695981039346656037)
	for i := 0; i < numItems; i++ {
		for _, c := range []byte(name(i)) {
			h = (h ^ uint64(c)) * 1099511628211
		}
		h = (h ^ 0xff) * 1099511628211 // item separator
	}
	h ^= uint64(freq)
	// splitmix64 finalizer, so that the sum does not cancel structure.
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	a.sum += h ^ (h >> 31)
	a.n++
}

func (a *answerHash) value() uint64 { return a.sum ^ uint64(a.n)<<48 }

func hashPatterns(d *dict.Dictionary, ps []miner.Pattern) uint64 {
	var a answerHash
	for _, p := range ps {
		a.add(p.Freq, len(p.Items), func(i int) string { return d.Name(p.Items[i]) })
	}
	return a.value()
}

// startLibrary runs the body of seqmine.Mine — fst.Compile, then
// service.Execute — split in two so that the context can carry a recorder
// and the compile gets its own span.
func startLibrary(algo service.Algorithm) func(*workload, []*seqdb.Database, *obs.Recorder, runConfig) (*env, error) {
	return func(w *workload, dbs []*seqdb.Database, rec *obs.Recorder, cfg runConfig) (*env, error) {
		eo := service.DefaultExecOptions()
		eo.Algorithm = algo
		eo.Workers = engineWorkers
		return &env{dbs: dbs, job: libraryJob(dbs, eo), close: func() {}}, nil
	}
}

func libraryJob(dbs []*seqdb.Database, eo service.ExecOptions) func(context.Context, query) (*jobResult, error) {
	return func(ctx context.Context, q query) (*jobResult, error) {
		db := dbs[q.DB]
		start := time.Now()
		ctx, span := obs.StartSpan(ctx, "bench.job", obs.Int("sigma", q.Sigma))
		defer span.End()
		_, cs := obs.StartSpan(ctx, "bench.fst.compile")
		f, err := fst.Compile(q.Expr, db.Dict)
		cs.End()
		compile := time.Since(start)
		if err != nil {
			return nil, err
		}
		opts := eo
		if eo.Cluster != nil {
			opts.Cluster = &service.ClusterOptions{Workers: eo.Cluster.Workers, Expression: q.Expr}
		}
		ectx, es := obs.StartSpan(ctx, "bench.service.execute")
		patterns, mr, st, err := service.Execute(ectx, f, db, q.Sigma, opts)
		es.End()
		elapsed := time.Since(start)
		if err != nil {
			return nil, err
		}
		return &jobResult{
			Elapsed: elapsed, Hash: hashPatterns(db.Dict, patterns), Patterns: len(patterns),
			Compile: compile, MR: mr, Exec: st, Trace: span.TraceID(),
		}, nil
	}
}

// Cluster shuffle bounds at full scale: small enough that every job streams
// and spills. They shrink with the data.
const (
	clusterSendBuffer     = 64 << 10
	clusterSpillThreshold = 256 << 10
)

func clusterExecOptions(cfg runConfig) service.ExecOptions {
	eo := service.DefaultExecOptions()
	eo.Workers = engineWorkers
	eo.SendBufferBytes = int64(clusterSendBuffer * cfg.Scale)
	eo.SpillThreshold = int64(clusterSpillThreshold * cfg.Scale)
	eo.SpillTmpDir = cfg.TmpDir
	return eo
}

func startCluster(w *workload, dbs []*seqdb.Database, rec *obs.Recorder, cfg runConfig) (*env, error) {
	var (
		urls    []string
		closers []func()
	)
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	for i := 0; i < engineWorkers; i++ {
		node, err := transport.NewNode("127.0.0.1:0", transport.Config{})
		if err != nil {
			closeAll()
			return nil, err
		}
		closers = append(closers, func() { node.Close() })
		cw := cluster.NewWorker(node)
		cw.SpillDir = cfg.TmpDir
		if rec != nil {
			cw.Rec = obs.NewRecorder(fmt.Sprintf("worker-%d", i), 0)
		}
		srv := httptest.NewServer(cw.Handler())
		closers = append(closers, srv.Close)
		urls = append(urls, srv.URL)
	}
	eo := clusterExecOptions(cfg)
	eo.Cluster = &service.ClusterOptions{Workers: urls}
	return &env{dbs: dbs, job: libraryJob(dbs, eo), close: closeAll}, nil
}

func serveDataset(i int) string { return fmt.Sprintf("nyt%d", i) }

func serviceConfig(resultCache int, rec *obs.Recorder) service.Config {
	return service.Config{Workers: engineWorkers, MaxConcurrent: 2, ResultCacheSize: resultCache, Recorder: rec}
}

func startService(w *workload, dbs []*seqdb.Database, rec *obs.Recorder, cfg runConfig) (*env, error) {
	svc := service.New(serviceConfig(8, rec))
	for i, db := range dbs {
		if _, err := svc.RegisterDataset(serveDataset(i), db); err != nil {
			return nil, err
		}
	}
	srv := httptest.NewServer(service.NewHandler(svc))
	tr := &http.Transport{MaxIdleConnsPerHost: w.Clients}
	client := &http.Client{Transport: tr}
	job := func(ctx context.Context, q query) (*jobResult, error) {
		body, err := json.Marshal(service.MineRequest{
			Dataset: serveDataset(q.DB), Pattern: q.Expr, Sigma: q.Sigma,
			Algorithm: string(service.AlgoDFS), Shards: 2, Workers: engineWorkers,
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		ctx, span := obs.StartSpan(ctx, "bench.http", obs.Int("sigma", q.Sigma))
		defer span.End()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/mine", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		obs.InjectHeader(ctx, req.Header)
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			return &jobResult{Elapsed: time.Since(start), Shed: true}, nil
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("POST /mine: %s: %s", resp.Status, bytes.TrimSpace(raw))
		}
		var out service.MineResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		var a answerHash
		for _, p := range out.Patterns {
			a.add(p.Freq, len(p.Items), func(i int) string { return p.Items[i] })
		}
		m := out.Metrics
		return &jobResult{
			Elapsed: elapsed, Hash: a.value(), Patterns: out.Total,
			Compile: m.CompileTime, Mine: m.MineTime, MR: m.MapReduce, Exec: m.Exec,
			FSTCacheHit: m.CacheHit, ResultCacheHit: m.ResultCacheHit,
			ResponseBytes: len(raw), Trace: span.TraceID(),
		}, nil
	}
	return &env{dbs: dbs, job: job, svc: svc, close: func() {
		tr.CloseIdleConnections()
		srv.Close()
	}}, nil
}

// setup is the set-up pass: generate the inputs from the seed, build the
// database, start the system under test and run the untimed warm-up jobs.
// It returns the running system, how long seqdb.Build took, and the set-up
// time a user would wait before the first timed job.
func setup(ctx context.Context, w *workload, cfg runConfig, queries []query, sched []int, rec *obs.Recorder) (*env, time.Duration, time.Duration, error) {
	start := time.Now()
	n, _ := w.scaled(cfg.Scale)
	var build time.Duration
	dbs := make([]*seqdb.Database, w.Datasets)
	for i := range dbs {
		raw, h := w.Gen(n, cfg.Seed*datasetSeeds+int64(i))
		buildStart := time.Now()
		db, err := seqdb.Build(raw, h)
		build += time.Since(buildStart)
		if err != nil {
			return nil, 0, 0, err
		}
		dbs[i] = db
	}
	e, err := w.Start(w, dbs, rec, cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	// The warm-up is the end of a schedule cycle, so that the first timed job
	// meets the caches as every later cycle's first job does.
	warm := cfg.jobs(w.WarmJobs)
	for i := 0; i < warm; i++ {
		q := queries[sched[(len(sched)-warm%len(sched)+i)%len(sched)]]
		if _, err := e.job(ctx, q); err != nil {
			e.close()
			return nil, 0, 0, fmt.Errorf("warm-up job %d: %w", i, err)
		}
	}
	return e, build, time.Since(start), nil
}

// makeTmpDir creates the directory spill segments go to, inside the
// benchmark's own output directory.
func makeTmpDir(out string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, "tmp-")
}
