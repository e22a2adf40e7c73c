package cluster

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"
	"weak"

	"seqmine/internal/lru"
	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
	"seqmine/internal/obs"
	"seqmine/internal/plan"
	"seqmine/internal/seqdb"
)

// Coordinator schedules mining jobs across a pool of worker processes. One
// job runs as a sequence of attempts, one in flight at a time: each attempt
// gang-schedules every per-partition task over the live workers and runs one
// BSP round; a worker death fails only that attempt, and the scheduler
// relaunches it under a fresh epoch on the surviving workers. The input
// database travels through the workers' shared dataset store, pushed at most
// once per worker per dataset.
type Coordinator struct {
	// Workers are the control URLs of the worker processes
	// ("http://host:port"), one per pool member.
	Workers []string
	// Client issues the control requests; nil uses http.DefaultClient. Job
	// requests run for the duration of an attempt, so a client with a short
	// Timeout will abort long jobs.
	Client *http.Client
	// HeartbeatInterval is how often busy workers are health-probed during a
	// job; 0 means 500ms.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many consecutive failed probes declare a worker
	// dead (its running attempt is then aborted and retried without it);
	// 0 means 3.
	HeartbeatMisses int
	// Obs, when non-nil, receives scheduler metrics: task-attempt durations
	// (seqmine_task_attempt_seconds) and heartbeat round-trip times
	// (seqmine_heartbeat_rtt_seconds).
	Obs *obs.Registry
	// Log receives structured liveness and scheduling log lines; nil falls
	// back to obs.DefaultLogger() (which may itself be silent). A recorder on
	// the Mine context additionally receives cluster.mine / cluster.attempt /
	// cluster.task spans, propagated to the workers via the X-Seqmine-Trace
	// header.
	Log *obs.Logger
}

// bundleRef caches one database's encoded bundle so resubmissions skip
// re-encoding (the network already skips re-shipping via the store probe).
type bundleRef struct {
	data []byte
	id   string
}

// bundleCache is shared by all coordinators of the process (the service
// layer builds a fresh Coordinator per query): keyed by a weak pointer to
// the database, so a resubmitted database object encodes once but a dropped
// one (e.g. a daemon re-registering a dataset) is not pinned in memory — a
// GC cleanup drops an entry as soon as its database is collected, and live
// entries are LRU-evicted beyond the (tiny) capacity.
var bundleCache = lru.New[weak.Pointer[seqdb.Database], bundleRef](maxBundleCache, nil)

// maxBundleCache bounds the process-wide bundle cache.
const maxBundleCache = 8

// Result is the merged outcome of a distributed mining job.
type Result struct {
	// TraceID is the distributed trace this job ran under (empty when the
	// Mine context carried no recorder). The coordinator's recorder then
	// holds the merged end-to-end trace: its own scheduler spans plus the
	// winning attempt's worker spans.
	TraceID obs.TraceID
	// Patterns is the complete frequent-sequence set, sorted like the
	// single-process miners sort it.
	Patterns []miner.Pattern
	// Metrics aggregates the winning attempt's engine metrics: times are
	// maxima (phases run in parallel), counts and bytes are sums.
	// ShuffleBytes is the total bytes written to shuffle sockets by the
	// winning attempt.
	Metrics mapreduce.Metrics
	// WireBytesIn is the total bytes read from shuffle sockets by the
	// winning attempt; it equals Metrics.ShuffleBytes when every frame
	// arrived.
	WireBytesIn int64
	// PerWorker holds each gang member's own result for the winning attempt
	// (index = peer within the attempt's gang).
	PerWorker []JobResult

	// Tasks is the number of per-partition tasks the job was decomposed
	// into: one per worker live at the start.
	Tasks int
	// Attempts is the number of attempts launched (>= 1); the last one won,
	// under epoch Attempts-1.
	Attempts int
	// Retries is the number of attempts relaunched after a failure.
	Retries int
	// DeadWorkers are the control URLs of pool members declared dead during
	// the job.
	DeadWorkers []string

	// StoreHits counts workers that already held the dataset bundle;
	// StoreMisses counts workers the bundle had to be pushed to, and
	// StorePutBytes is the total bundle bytes shipped. A resubmission
	// against an already-pushed dataset reports StoreMisses == 0 and
	// StorePutBytes == 0: the job moved no sequence bytes.
	StoreHits     int
	StoreMisses   int
	StorePutBytes int64
}

// workerRef is the scheduler's view of one pool member.
type workerRef struct {
	url      string
	dataAddr string

	mu     sync.Mutex
	alive  bool
	misses int // consecutive failed heartbeats
}

func (w *workerRef) isAlive() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.alive
}

func (w *workerRef) markDead() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	wasAlive := w.alive
	w.alive = false
	return wasAlive
}

// Mine runs one distributed job over the database with the scheduler
// described on Coordinator. p is the query plan: its Algorithm must be
// plan.AlgoDSeq or plan.AlgoDCand, its retry budget drives the scheduler,
// and the whole plan is shipped to the workers in every JobSpec.
func (c *Coordinator) Mine(ctx context.Context, db *seqdb.Database, expression string, sigma int64, p plan.Plan) (*Result, error) {
	if len(c.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	if db == nil || db.Dict == nil {
		return nil, fmt.Errorf("cluster: nil database")
	}
	client := c.Client
	if client == nil {
		client = http.DefaultClient
	}
	log := c.Log
	if log == nil {
		log = obs.DefaultLogger()
	}
	ctx, mineSpan := obs.StartSpan(ctx, "cluster.mine",
		obs.String("algorithm", string(p.Algorithm)), obs.Int("sigma", sigma),
		obs.Int("workers", int64(len(c.Workers))))
	defer mineSpan.End()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Probe the pool: a worker that does not answer /healthz now is out for
	// this job.
	pool := make([]*workerRef, len(c.Workers))
	var probeWG sync.WaitGroup
	probeErrs := make([]error, len(c.Workers))
	for i, base := range c.Workers {
		pool[i] = &workerRef{url: strings.TrimRight(base, "/")}
		probeWG.Add(1)
		go func(i int) {
			defer probeWG.Done()
			var health HealthResponse
			if err := getJSON(ctx, client, pool[i].url+"/healthz", &health); err != nil {
				probeErrs[i] = err
				return
			}
			if health.DataAddr == "" {
				probeErrs[i] = fmt.Errorf("worker advertises no shuffle address")
				return
			}
			pool[i].dataAddr = health.DataAddr
			pool[i].alive = true
		}(i)
	}
	probeWG.Wait()
	live := liveWorkers(pool)
	if len(live) == 0 {
		return nil, fmt.Errorf("cluster: no live workers (worker 0 %s: %v)", c.Workers[0], probeErrs[0])
	}

	// Push the dataset bundle to every live worker that does not hold it.
	data, datasetID, err := bundleFor(ctx, db)
	if err != nil {
		return nil, err
	}
	res := &Result{TraceID: mineSpan.TraceID()}
	var pushMu sync.Mutex
	var pushWG sync.WaitGroup
	for _, ws := range live {
		pushWG.Add(1)
		go func(ws *workerRef) {
			defer pushWG.Done()
			hit, putBytes, err := ensureDataset(ctx, client, ws.url, datasetID, data)
			pushMu.Lock()
			defer pushMu.Unlock()
			if err != nil {
				if ws.markDead() {
					res.DeadWorkers = append(res.DeadWorkers, ws.url)
				}
				return
			}
			if hit {
				res.StoreHits++
			} else {
				res.StoreMisses++
				res.StorePutBytes += putBytes
			}
		}(ws)
	}
	pushWG.Wait()
	live = liveWorkers(pool)
	if len(live) == 0 {
		return nil, fmt.Errorf("cluster: no worker accepted the dataset bundle")
	}

	// One per-partition task per live worker. The partition count is fixed
	// for the whole job, so task identity survives gang changes across
	// attempts: a retry on fewer survivors gives some of them several tasks.
	res.Tasks = len(live)

	jobID, err := newJobID()
	if err != nil {
		return nil, err
	}
	sched := &scheduler{
		coord:     c,
		client:    client,
		ctx:       ctx,
		pool:      pool,
		jobID:     jobID,
		numTasks:  res.Tasks,
		datasetID: datasetID,
		bundle:    data,
		expr:      expression,
		sigma:     sigma,
		plan:      p,
		res:       res,
		log:       log,
		attemptHist: c.Obs.Histogram("seqmine_task_attempt_seconds",
			"Duration of cluster job attempts (gang launch to last member response).",
			obs.DurationBuckets, "algorithm", string(p.Algorithm)),
		hbHist: c.Obs.Histogram("seqmine_heartbeat_rtt_seconds",
			"Round-trip time of successful worker heartbeat probes.", obs.DurationBuckets),
	}
	result, err := sched.run()
	if err != nil {
		mineSpan.SetAttr("error", err.Error())
		return nil, err
	}
	mineSpan.SetAttrInt("attempts", int64(result.Attempts))
	mineSpan.SetAttrInt("retries", int64(result.Retries))
	mineSpan.SetAttrInt("patterns", int64(len(result.Patterns)))
	return result, nil
}

// liveWorkers filters the pool down to its live members, in pool order.
func liveWorkers(pool []*workerRef) []*workerRef {
	var live []*workerRef
	for _, ws := range pool {
		if ws.isAlive() {
			live = append(live, ws)
		}
	}
	return live
}

// bundleFor returns the (cached) encoded bundle of db.
func bundleFor(ctx context.Context, db *seqdb.Database) ([]byte, string, error) {
	key := weak.Make(db)
	ref, _, err := bundleCache.Get(ctx, key, func() (bundleRef, error) {
		data, id, err := EncodeBundle(db)
		if err != nil {
			return bundleRef{}, err
		}
		// Drop the entry as soon as the database itself is collected, so an
		// idle daemon does not pin dead bundles until the next cluster query.
		runtime.AddCleanup(db, func(k weak.Pointer[seqdb.Database]) {
			bundleCache.Remove(func(key weak.Pointer[seqdb.Database], _ bundleRef) bool { return key == k })
		}, key)
		return bundleRef{data: data, id: id}, nil
	})
	return ref.data, ref.id, err
}

// ensureDataset makes one worker hold the bundle: a cheap presence probe,
// then a PUT only on miss. Returns whether the probe hit.
func ensureDataset(ctx context.Context, client *http.Client, baseURL, id string, data []byte) (hit bool, putBytes int64, err error) {
	probeErr := getJSON(ctx, client, baseURL+"/datasets/"+id, &struct{}{})
	if probeErr == nil {
		return true, 0, nil
	}
	var herr *httpStatusError
	if !errors.As(probeErr, &herr) || herr.status != http.StatusNotFound {
		return false, 0, probeErr
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, baseURL+"/datasets/"+id, bytes.NewReader(data))
	if err != nil {
		return false, 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if err := doJSON(client, req, &struct{}{}); err != nil {
		return false, 0, err
	}
	return false, int64(len(data)), nil
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

// scheduler drives one job's attempts to completion.
type scheduler struct {
	coord  *Coordinator
	client *http.Client
	ctx    context.Context
	pool   []*workerRef

	jobID     string
	numTasks  int
	datasetID string
	bundle    []byte
	expr      string
	sigma     int64
	plan      plan.Plan
	res       *Result

	log         *obs.Logger
	attemptHist *obs.Histogram
	hbHist      *obs.Histogram
	probeClient *http.Client // health probes: heartbeats and blame checks

	outcomes chan *attempt

	// smu guards res.Attempts, res.DeadWorkers and current, which the
	// heartbeat goroutine touches concurrently with the scheduling loop.
	smu     sync.Mutex
	current *attempt // the latest attempt launched
}

// attempt is one gang execution of all tasks.
type attempt struct {
	epoch  int
	gang   []*workerRef
	cancel context.CancelFunc

	// hbDead is set (under mu) by the heartbeat loop before canceling the
	// attempt.
	mu     sync.Mutex
	hbDead *workerRef

	// outcome, posted to scheduler.outcomes when every gang request ended.
	results   []JobResult
	err       error      // nil on success
	permanent bool       // failure a retry cannot fix
	failed    *workerRef // gang member held responsible, when identifiable
	repush    *workerRef // gang member that lost the dataset (evicted)
}

func (a *attempt) heartbeatDeath() *workerRef {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.hbDead
}

func (s *scheduler) heartbeatInterval() time.Duration {
	if s.coord.HeartbeatInterval > 0 {
		return s.coord.HeartbeatInterval
	}
	return 500 * time.Millisecond
}

func (s *scheduler) heartbeatMisses() int {
	if s.coord.HeartbeatMisses > 0 {
		return s.coord.HeartbeatMisses
	}
	return 3
}

// run launches attempts until one succeeds, the retry budget is exhausted,
// or the context ends.
func (s *scheduler) run() (*Result, error) {
	maxRetries := s.plan.RetryBudget()
	// Every attempt posts exactly one outcome, and the next attempt launches
	// only after it has: one slot lets the attempt in flight post even after
	// the scheduler has returned on cancellation.
	s.outcomes = make(chan *attempt, 1)
	s.probeClient = &http.Client{Timeout: 2 * s.heartbeatInterval()}

	// The heartbeat loop is joined before run returns: its probe goroutines
	// touch res.DeadWorkers, which the caller reads as soon as Mine returns.
	hbCtx, hbStop := context.WithCancel(s.ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		s.heartbeatLoop(hbCtx)
	}()
	defer func() {
		hbStop()
		<-hbDone
	}()

	if err := s.launch(); err != nil {
		return nil, err
	}

	for {
		select {
		case a := <-s.outcomes:
			if a.err == nil {
				return s.merge(a), nil
			}
			if s.ctx.Err() != nil {
				return nil, s.ctx.Err()
			}
			if a.permanent {
				s.log.Error("job failed permanently", obs.String("job", s.jobID),
					obs.Int("epoch", int64(a.epoch)), obs.String("error", a.err.Error()))
				return nil, fmt.Errorf("cluster: %w", a.err)
			}
			if a.failed != nil && a.failed.markDead() {
				s.addDeadWorker(a.failed)
				s.log.Warn("worker removed from pool", obs.String("worker", a.failed.url),
					obs.Int("epoch", int64(a.epoch)), obs.String("error", a.err.Error()))
			}
			if a.repush != nil {
				hit, putBytes, err := ensureDataset(s.ctx, s.client, a.repush.url, s.datasetID, s.bundle)
				if err != nil {
					if a.repush.markDead() {
						s.addDeadWorker(a.repush)
					}
				} else if !hit {
					s.res.StoreMisses++
					s.res.StorePutBytes += putBytes
				}
			}
			if s.res.Retries >= maxRetries {
				s.log.Error("retry budget exhausted", obs.String("job", s.jobID),
					obs.Int("attempts", int64(s.res.Attempts)), obs.String("error", a.err.Error()))
				return nil, fmt.Errorf("cluster: job failed after %d attempts (%d retries): %w",
					s.res.Attempts, s.res.Retries, a.err)
			}
			s.res.Retries++
			s.log.Warn("attempt failed, retrying", obs.String("job", s.jobID),
				obs.Int("epoch", int64(a.epoch)), obs.Int("retries", int64(s.res.Retries)),
				obs.String("error", a.err.Error()))
			if err := s.launch(); err != nil {
				return nil, fmt.Errorf("cluster: relaunching after %w: %v", a.err, err)
			}
		case <-s.ctx.Done():
			return nil, s.ctx.Err()
		}
	}
}

// latestEpoch is the most recently launched attempt epoch (-1 before the
// first launch); the heartbeat loop stamps it onto its log lines.
func (s *scheduler) latestEpoch() int {
	s.smu.Lock()
	defer s.smu.Unlock()
	return s.res.Attempts - 1
}

func (s *scheduler) addDeadWorker(ws *workerRef) {
	s.smu.Lock()
	s.res.DeadWorkers = append(s.res.DeadWorkers, ws.url)
	s.smu.Unlock()
}

// launch starts one attempt over the currently live workers: every task is
// assigned to a gang member (rotated by epoch so a straggler gets different
// partitions on the next attempt) and each member is POSTed its spec.
func (s *scheduler) launch() error {
	gang := liveWorkers(s.pool)
	if len(gang) == 0 {
		return fmt.Errorf("no live workers remain")
	}
	// Attempt k runs under epoch k. The heartbeat loop reads the latest epoch
	// for its log lines, so the counter is guarded even though only the run
	// loop launches.
	s.smu.Lock()
	epoch := s.res.Attempts
	s.res.Attempts++
	s.smu.Unlock()

	dataPeers := make([]string, len(gang))
	for i, ws := range gang {
		dataPeers[i] = ws.dataAddr
	}
	parts := make([][]int, len(gang))
	for task := 0; task < s.numTasks; task++ {
		gi := (task + epoch) % len(gang)
		parts[gi] = append(parts[gi], task)
	}

	sctx, aspan := obs.StartSpan(s.ctx, "cluster.attempt",
		obs.Int("epoch", int64(epoch)), obs.Int("gang", int64(len(gang))))
	actx, acancel := context.WithCancel(sctx)
	a := &attempt{epoch: epoch, gang: gang, cancel: acancel, results: make([]JobResult, len(gang))}
	s.smu.Lock()
	s.current = a
	s.smu.Unlock()
	s.log.Info("attempt launched", obs.String("job", s.jobID), obs.Int("epoch", int64(epoch)),
		obs.Int("gang", int64(len(gang))), obs.Int("tasks", int64(s.numTasks)))

	go func() {
		started := time.Now()
		defer acancel()
		errs := make([]error, len(gang))
		var wg sync.WaitGroup
		for gi := range gang {
			spec := JobSpec{
				JobID:         s.jobID,
				Epoch:         epoch,
				Peer:          gi,
				DataPeers:     dataPeers,
				Expression:    s.expr,
				Sigma:         s.sigma,
				DatasetID:     s.datasetID,
				NumPartitions: s.numTasks,
				Partitions:    parts[gi],
				Plan:          s.plan,
			}
			wg.Add(1)
			go func(gi int, spec JobSpec) {
				defer wg.Done()
				tctx, tspan := obs.StartSpan(actx, "cluster.task",
					obs.Int("peer", int64(gi)), obs.String("worker", gang[gi].url),
					obs.Int("epoch", int64(epoch)), obs.Int("partitions", int64(len(spec.Partitions))))
				err := postJSON(tctx, s.client, gang[gi].url+"/run", spec, &a.results[gi])
				if err != nil {
					tspan.SetAttr("error", err.Error())
				}
				tspan.End()
				errs[gi] = err
			}(gi, spec)
		}
		wg.Wait()
		s.classify(a, errs)
		s.attemptHist.Observe(time.Since(started).Seconds())
		if a.err != nil {
			aspan.SetAttr("error", a.err.Error())
		}
		aspan.End()
		s.outcomes <- a // the one slot is free: the previous outcome was received
	}()
	return nil
}

// classify condenses a finished attempt's per-member errors into one outcome.
// Only first-hand evidence removes a worker from the pool: missed heartbeats,
// its own control request failing at the transport level, or a failed health
// probe. A failed_peer report is hearsay — a healthy member whose shuffle
// stream broke may be seeing the cascade of another member aborting, and it
// names whichever connection closed first — so an attempt that failed on
// reports alone blames the first member that no longer answers /healthz, and
// nobody when they all answer.
func (s *scheduler) classify(a *attempt, errs []error) {
	if dead := a.heartbeatDeath(); dead != nil {
		a.err = fmt.Errorf("worker %s stopped answering heartbeats", dead.url)
		a.failed = dead
		return
	}
	for gi, err := range errs {
		if err == nil {
			continue
		}
		if a.err == nil {
			a.err = fmt.Errorf("worker %d (%s): %w", gi, a.gang[gi].url, err)
		}
		var herr *httpStatusError
		if !errors.As(err, &herr) {
			if errors.Is(err, context.Canceled) {
				// Our own cancellation (heartbeat abort or shutdown), not a death.
				continue
			}
			// Transport-level failure: the worker itself is unreachable.
			if a.failed == nil {
				a.failed = a.gang[gi]
				a.err = fmt.Errorf("worker %d (%s) unreachable: %w", gi, a.gang[gi].url, err)
			}
			continue
		}
		switch herr.status {
		case http.StatusBadRequest:
			a.permanent = true
			a.err = fmt.Errorf("worker %d (%s): %w", gi, a.gang[gi].url, err)
			return
		case http.StatusNotFound:
			if a.repush == nil {
				a.repush = a.gang[gi]
			}
		}
	}
	if a.failed == nil && a.err != nil {
		if a.failed = s.firstUnhealthy(a.gang); a.failed != nil {
			a.err = fmt.Errorf("worker %s fails its health probe after: %w", a.failed.url, a.err)
		}
	}
	if a.err == nil && s.ctx.Err() != nil {
		a.err = s.ctx.Err()
	}
}

// firstUnhealthy probes every gang member once, concurrently, and returns the
// first in gang order that does not answer — nil when all answer or the job
// was cancelled, since a cancelled probe says nothing about the worker.
func (s *scheduler) firstUnhealthy(gang []*workerRef) *workerRef {
	failed := make([]bool, len(gang))
	var wg sync.WaitGroup
	for i, ws := range gang {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var health HealthResponse
			failed[i] = getJSON(s.ctx, s.probeClient, ws.url+"/healthz", &health) != nil
		}()
	}
	wg.Wait()
	if s.ctx.Err() != nil {
		return nil
	}
	for i, f := range failed {
		if f {
			return gang[i]
		}
	}
	return nil
}

// heartbeatLoop probes the live pool members while the job runs; a member
// that misses enough consecutive probes is declared dead and the attempt in
// flight is aborted if it contains it (which surfaces as that attempt's
// failure and triggers the retry path).
func (s *scheduler) heartbeatLoop(ctx context.Context) {
	ticker := time.NewTicker(s.heartbeatInterval())
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		var wg sync.WaitGroup
		for _, ws := range liveWorkers(s.pool) {
			wg.Add(1)
			go func(ws *workerRef) {
				defer wg.Done()
				var health HealthResponse
				start := time.Now()
				err := getJSON(ctx, s.probeClient, ws.url+"/healthz", &health)
				rtt := time.Since(start)
				if ctx.Err() != nil {
					return // shutting down: a canceled probe is not a miss
				}
				if err == nil {
					s.hbHist.Observe(rtt.Seconds())
				}
				ws.mu.Lock()
				recovered := false
				if err != nil {
					ws.misses++
				} else {
					recovered = ws.misses > 0 && ws.alive
					ws.misses = 0
				}
				misses := ws.misses
				dead := ws.alive && ws.misses >= s.heartbeatMisses()
				if dead {
					ws.alive = false
				}
				ws.mu.Unlock()
				epoch := int64(s.latestEpoch())
				switch {
				case dead:
					s.log.Warn("worker declared dead", obs.String("worker", ws.url),
						obs.Int("misses", int64(misses)), obs.Int("epoch", epoch),
						obs.String("error", err.Error()))
					s.onHeartbeatDeath(ws)
				case err != nil:
					s.log.Debug("worker heartbeat missed", obs.String("worker", ws.url),
						obs.Int("misses", int64(misses)), obs.Int("epoch", epoch),
						obs.String("error", err.Error()))
				case recovered:
					s.log.Info("worker heartbeat recovered", obs.String("worker", ws.url),
						obs.Int("epoch", epoch))
				}
			}(ws)
		}
		wg.Wait()
	}
}

// onHeartbeatDeath aborts the attempt in flight if it contains the dead
// worker.
func (s *scheduler) onHeartbeatDeath(ws *workerRef) {
	s.smu.Lock()
	s.res.DeadWorkers = append(s.res.DeadWorkers, ws.url)
	a := s.current
	s.smu.Unlock()
	if a == nil || !slices.Contains(a.gang, ws) {
		return
	}
	a.mu.Lock()
	a.hbDead = ws
	a.mu.Unlock()
	a.cancel()
}

// merge folds the winning attempt into the job result.
func (s *scheduler) merge(a *attempt) *Result {
	res := s.res
	res.PerWorker = a.results
	res.Metrics.RemoteShuffle = true
	// Fold the workers' span records into the coordinator's recorder: the
	// merged trace then covers the scheduler, every gang member's run (the
	// winning attempt plus any earlier attempts the surviving workers
	// recorded under the same trace) and their engine stages.
	if rec := obs.RecorderFrom(s.ctx); rec != nil {
		for _, r := range a.results {
			rec.Import(r.Spans)
		}
	}
	for _, r := range a.results {
		res.Patterns = append(res.Patterns, r.Patterns...)
		res.WireBytesIn += r.WireBytesIn
		m := r.Metrics
		if m.MapTime > res.Metrics.MapTime {
			res.Metrics.MapTime = m.MapTime
		}
		if m.ShuffleTime > res.Metrics.ShuffleTime {
			res.Metrics.ShuffleTime = m.ShuffleTime
		}
		if m.ReduceTime > res.Metrics.ReduceTime {
			res.Metrics.ReduceTime = m.ReduceTime
		}
		res.Metrics.MapOutputRecords += m.MapOutputRecords
		res.Metrics.ShuffleRecords += m.ShuffleRecords
		res.Metrics.ShuffleBytes += m.ShuffleBytes
		res.Metrics.Partitions += m.Partitions // pivot keys are disjoint across peers
		if m.MaxPartitionRecords > res.Metrics.MaxPartitionRecords {
			res.Metrics.MaxPartitionRecords = m.MaxPartitionRecords
		}
		res.Metrics.SpilledBytes += m.SpilledBytes
		res.Metrics.SpillCount += m.SpillCount
		res.Metrics.StreamedBatches += m.StreamedBatches
	}
	miner.SortPatterns(res.Patterns)
	return res
}

// ---------------------------------------------------------------------------
// HTTP helpers
// ---------------------------------------------------------------------------

func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("cluster: generating job id: %w", err)
	}
	return "job-" + hex.EncodeToString(b[:]), nil
}

// httpStatusError is a non-200 control-plane response, with the worker's
// structured error message when it sent one.
type httpStatusError struct {
	status int
	msg    string
}

func (e *httpStatusError) Error() string { return e.msg }

func getJSON(ctx context.Context, client *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	obs.InjectHeader(ctx, req.Header)
	return doJSON(client, req, out)
}

func postJSON(ctx context.Context, client *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	obs.InjectHeader(ctx, req.Header)
	return doJSON(client, req, out)
}

func doJSON(client *http.Client, req *http.Request, out any) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		herr := &httpStatusError{status: resp.StatusCode}
		var je jsonError
		if json.Unmarshal(msg, &je) == nil && je.Error != "" {
			herr.msg = fmt.Sprintf("%s: %s", resp.Status, je.Error)
		} else {
			herr.msg = fmt.Sprintf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
		}
		return herr
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
