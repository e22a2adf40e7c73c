package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"seqmine/internal/fst"
	"seqmine/internal/miner"
	"seqmine/internal/obs"
)

// runConfig is one invocation's settings.
type runConfig struct {
	Seed    int64
	Seconds float64 // length of the timed pass
	Trace   bool
	Scale   float64 // data scale; 1 is full size, -smoke uses 0.25
	// SetupReps is how many times the set-up pass runs; setup_s is the
	// median and the last one's system is the one measured.
	SetupReps int
	// Smoke quarters the data (Scale) and the job counts and skips the
	// warm-up spin: a check that everything runs, not a measurement.
	Smoke  bool
	OutDir string
	TmpDir string
}

// jobs scales a workload's fixed job count to the run.
func (c runConfig) jobs(n int) int {
	if c.Smoke {
		return max(1, n/4)
	}
	return n
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envInfo is recorded with every result so that numbers from different
// hosts are not compared by accident.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

// runDetail is everything one run measured; it is written to
// <out>/<workload>.trace<0|1>.json and the all-workloads mode folds the
// details into result.json.
type runDetail struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Scale    float64 `json:"scale"`
	Env      envInfo `json:"env"`

	CalibBeforeNS float64 `json:"calib_before_ns"`
	CalibAfterNS  float64 `json:"calib_after_ns"`
	CalibDrift    float64 `json:"calib_drift"`
	Noisy         bool    `json:"noisy"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	// Samples is the number of timed jobs behind the percentiles and
	// HighestPercentile the highest one that count supports.
	Samples           int     `json:"samples"`
	HighestPercentile float64 `json:"highest_percentile"`

	Metrics map[string]metricValue `json:"metrics"`
	// Diagnostics are printed and kept but are not part of the contract:
	// numbers too unsteady on a shared host to carry a regression bound.
	Diagnostics map[string]metricValue `json:"diagnostics,omitempty"`
	// RefHashes are the reference answers (query -> hash); dseq-loose and
	// dcand-loose must agree on them.
	RefHashes map[string]string `json:"ref_hashes"`
	// SelfMSPerJob is each span name's self time per traced job: its
	// duration minus the part its child spans cover.
	SelfMSPerJob map[string]float64 `json:"self_ms_per_job,omitempty"`
}

func (d *runDetail) fail(format string, args ...any) {
	d.Correct = false
	if len(d.Failures) < 8 {
		d.Failures = append(d.Failures, fmt.Sprintf(format, args...))
	}
}

func readEnv() envInfo {
	info := envInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				info.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return info
}

// calibrate times the fixed splitmix64 loop of BenchmarkCalibration (same
// constants, 1<<22 steps, about 4 ms) nine times over and returns the median
// run in ns. It collects garbage first, so that no collector works beside the
// loop. On the host this was built on it is a weak measure all the same: from
// one second to the next the loop takes 3.2, 4.1 or 4.8 ms, whether nine runs
// are timed or a hundred, while the workloads keep their pace.
func calibrate() float64 {
	runtime.GC()
	took := make([]float64, 9)
	for i := range took {
		start := time.Now()
		var acc uint64
		for j := uint64(0); j < 1<<22; j++ {
			x := j + 0x9e3779b97f4a7c15
			x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
			x = (x ^ (x >> 27)) * 0x94d049bb133111eb
			acc ^= x ^ (x >> 31)
		}
		took[i] = float64(time.Since(start))
		if acc == 42 {
			panic("unreachable; keeps the loop from being optimized away")
		}
	}
	return median(took)
}

// allocatedBytes is the number of heap bytes the process has allocated so
// far (MemStats.TotalAlloc, read without stopping the world).
func allocatedBytes() uint64 {
	sample := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample[:])
	return sample[0].Value.Uint64()
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// passStats is one pass's outcome.
type passStats struct {
	Results   []*jobResult // correct jobs, in completion order
	Attempted int
	Failed    int
	// CycleLen is the length of the schedule cycle the jobs went round.
	CycleLen int
	// The clocks when the first job was sent; every job has their readings
	// at its end.
	Start      time.Time
	CPUStart   time.Duration
	AllocStart uint64
}

func (p *passStats) elapsedMS() []float64 {
	out := make([]float64, len(p.Results))
	for i, r := range p.Results {
		out[i] = ms(int64(r.Elapsed))
	}
	sort.Float64s(out)
	return out
}

// drive runs the cyclic schedule closed-loop from w.Clients goroutines: a
// client sends its next job only when the previous answer is back, because a
// caller of a mining job waits for it. The pass ends when stop reports true
// for the number of jobs issued so far; every answer is checked against the
// reference and the workload's layer assertions.
func drive(ctx context.Context, w *workload, e *env, queries []query, sched []int, ref map[query]uint64, clients int, stop func(issued int) bool, d *runDetail) passStats {
	var (
		next atomic.Int64
		mu   sync.Mutex
		ps   = passStats{CycleLen: len(sched)}
		wg   sync.WaitGroup
	)
	ps.AllocStart, ps.CPUStart, ps.Start = allocatedBytes(), cpuTime(), time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if stop(i) {
					return
				}
				q := queries[sched[i%len(sched)]]
				r, err := e.job(ctx, q)
				if err == nil && r.Hash != ref[q] && !r.Shed {
					err = fmt.Errorf("answer hash %016x differs from reference %016x", r.Hash, ref[q])
				}
				if err == nil {
					err = w.Check(r)
				}
				mu.Lock()
				ps.Attempted++
				if err != nil {
					ps.Failed++
					d.fail("%s job %d (%s): %v", w.Name, i, q, err)
				} else {
					r.End, r.CPUEnd, r.AllocEnd = time.Now(), cpuTime(), allocatedBytes()
					ps.Results = append(ps.Results, r)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ps
}

// numSegments is the most groups the timed jobs are split into, in completion
// order. On the host this was built on, everything slows by a quarter for
// minutes at a time; such a spell can only slow jobs down, so the best group
// is the steadiest estimate of the code's own speed, and the per-job metrics
// report it.
const numSegments = 6

// segment is one group of consecutive timed jobs.
type segment struct {
	Jobs                                  int
	P50MS, JobsPerS, CPUMSPerJob, AllocMB float64
}

// segments splits the pass's whole schedule cycles into at most k groups of
// as equal a number of cycles as can be. Every cycle is the same work, so the
// groups compare like with like; the jobs of a last, unfinished cycle are in
// no group. A pass shorter than one cycle is one group.
func (p *passStats) segments(k int) []segment {
	cycleLen, cycles := p.CycleLen, len(p.Results)/p.CycleLen
	if cycles == 0 {
		cycleLen, cycles = len(p.Results), 1
	}
	k = min(k, cycles)
	out := make([]segment, 0, k)
	prevEnd, prevCPU, prevAlloc := p.Start, p.CPUStart, p.AllocStart
	for g := 0; g < k; g++ {
		group := p.Results[g*cycles/k*cycleLen : (g+1)*cycles/k*cycleLen]
		lat := make([]float64, len(group))
		for i, r := range group {
			lat[i] = ms(int64(r.Elapsed))
		}
		last, n := group[len(group)-1], float64(len(group))
		out = append(out, segment{
			Jobs:        len(group),
			P50MS:       median(lat),
			JobsPerS:    n / last.End.Sub(prevEnd).Seconds(),
			CPUMSPerJob: ms(int64(last.CPUEnd-prevCPU)) / n,
			AllocMB:     float64(last.AllocEnd-prevAlloc) / (1 << 20),
		})
		prevEnd, prevCPU, prevAlloc = last.End, last.CPUEnd, last.AllocEnd
	}
	return out
}

// segmentSpread is (worst - best) / best of the segments' medians: how much
// the host's speed moved within the run.
func segmentSpread(segs []segment) float64 {
	lo, hi := math.Inf(1), 0.0
	for _, s := range segs {
		lo, hi = min(lo, s.P50MS), max(hi, s.P50MS)
	}
	return (hi - lo) / lo
}

func stopAfter(window time.Duration) func(int) bool {
	deadline := time.Now().Add(window)
	return func(int) bool { return !time.Now().Before(deadline) }
}

func stopAtJobs(n int) func(int) bool { return func(issued int) bool { return issued >= n } }

// reference mines every distinct query with the single-threaded DESQ-DFS
// miner. The hashes are what every job's answer is checked against; the
// times are the sequential baseline (miner.dfs_seq_ms).
func reference(e *env, queries []query) (map[query]uint64, []float64, int, error) {
	ref := make(map[query]uint64, len(queries))
	times := make([]float64, 0, len(queries))
	patterns := 0
	for _, q := range queries {
		if _, done := ref[q]; done {
			continue
		}
		db := e.dbs[q.DB]
		f, err := fst.Compile(q.Expr, db.Dict)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("compiling %q: %w", q.Expr, err)
		}
		start := time.Now()
		ps := miner.MineDFS(f, miner.Weighted(db.Sequences), q.Sigma, miner.DFSOptions{})
		times = append(times, ms(int64(time.Since(start))))
		ref[q] = hashPatterns(db.Dict, ps)
		patterns += len(ps)
	}
	return ref, times, patterns, nil
}

// runWorkload is one invocation: calibrate, set up, compute the reference
// answers, run the timed pass with tracing off, and with cfg.Trace the traced
// pass and the layer probes on top.
func runWorkload(ctx context.Context, w *workload, cfg runConfig) (*runDetail, error) {
	d := &runDetail{
		Workload: w.Name, Seed: cfg.Seed, Seconds: cfg.Seconds, Scale: cfg.Scale,
		Env: readEnv(), Correct: true, Metrics: map[string]metricValue{}, RefHashes: map[string]string{},
	}
	if cfg.Trace {
		d.Trace = 1
	}
	if d.Env.NProc < engineWorkers {
		return nil, fmt.Errorf("refusing to run on %d CPU: the workloads are sized for %d", d.Env.NProc, engineWorkers)
	}
	// A process that has just started runs well below the host's speed for
	// most of a second; spin through that before the first calibration.
	for start := time.Now(); !cfg.Smoke && time.Since(start) < time.Second; {
		calibrate()
	}
	d.CalibBeforeNS = calibrate()

	_, queries := w.scaled(cfg.Scale)
	sched := w.schedule(len(queries), cfg.Seed)

	var (
		e       *env
		setups  []float64
		buildMS []float64
	)
	reps := cfg.SetupReps
	if cfg.Trace {
		reps = 1 // setup_s is an end-to-end metric
	}
	for rep := 0; rep < reps; rep++ {
		if e != nil {
			e.close()
		}
		var (
			build, took time.Duration
			err         error
		)
		e, build, took, err = setup(ctx, w, cfg, queries, sched, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took.Seconds())
		buildMS = append(buildMS, ms(int64(build)))
	}
	defer func() {
		if e != nil {
			e.close()
		}
	}()

	ref, dfsMS, refPatterns, err := reference(e, queries)
	if err != nil {
		return nil, err
	}
	for q, h := range ref {
		d.RefHashes[q.String()] = fmt.Sprintf("%016x", h)
	}

	// The end-to-end run measures for the window from all the workload's
	// clients. A traced run instead does fixed work from one client, twice:
	// here with tracing off, below with the recorder on, so that the two
	// medians differ by the tracing alone and the counts repeat exactly.
	clients, stop := w.Clients, stopAfter(time.Duration(cfg.Seconds*float64(time.Second)))
	if cfg.Trace {
		clients, stop = 1, stopAtJobs(cfg.jobs(w.TracedJobs))
	}
	runtime.GC()
	timed := drive(ctx, w, e, queries, sched, ref, clients, stop, d)
	d.Attempted, d.Failed = timed.Attempted, timed.Failed
	lat := timed.elapsedMS()
	d.Samples = len(lat)
	d.HighestPercentile = highestPercentile(len(lat))
	if len(lat) == 0 {
		return nil, fmt.Errorf("no job of %s succeeded: %v", w.Name, d.Failures)
	}
	p50 := percentile(lat, 50)

	if !cfg.Trace {
		d.endToEnd(&timed, lat, median(setups))
	} else {
		lm := layerValues{}
		lm["seqdb.build_ms"] = median(buildMS)
		lm["miner.dfs_seq_ms"] = median(dfsMS)
		lm["miner.patterns"] = float64(refPatterns)
		lm["miner.seq_gap_x"] = ratio(p50, lm["miner.dfs_seq_ms"])
		// The traced pass runs on a fresh system with a recorder, so its
		// caches start from the same warm-up as the timed pass's did and its
		// counts repeat exactly for one seed.
		e.close()
		rec := obs.NewRecorder("seqbench", 1<<16)
		if e, _, _, err = setup(ctx, w, cfg, queries, sched, rec); err != nil { // e is nil on error
			return nil, fmt.Errorf("set-up of the traced pass: %w", err)
		}
		traced := drive(obs.WithRecorder(ctx, rec), w, e, queries, sched, ref, 1, stopAtJobs(cfg.jobs(w.TracedJobs)), d)
		d.Attempted += traced.Attempted
		d.Failed += traced.Failed
		if len(traced.Results) == 0 {
			return nil, fmt.Errorf("no traced job of %s succeeded: %v", w.Name, d.Failures)
		}
		spans := collectSpans(rec, traced.Results)
		d.SelfMSPerJob = selfTimeByName(spans, len(traced.Results))
		if err := writeChromeTrace(cfg.OutDir, w.Name, spans); err != nil {
			return nil, err
		}
		jobLayerMetrics(lm, w, e, traced.Results, p50, len(spans))
		if err := runProbes(ctx, lm, w, e, queries, ref, cfg, p50, d); err != nil {
			return nil, err
		}
		for _, m := range perLayer {
			d.Metrics[m.Name] = metricValue{lm[m.Name], m.Unit}
		}
	}

	d.CalibAfterNS = calibrate()
	d.CalibDrift = math.Abs(d.CalibAfterNS-d.CalibBeforeNS) / d.CalibBeforeNS
	d.Noisy = d.CalibDrift > 0.10
	return d, nil
}

// endToEnd fills the end-to-end metrics from the timed pass. The time
// metrics are the best group's and the allocation is that of all the whole
// cycles; what the whole window gave is kept beside them as diagnostics.
func (d *runDetail) endToEnd(timed *passStats, sortedMS []float64, setupS float64) {
	segs := timed.segments(numSegments)
	best := segment{P50MS: math.Inf(1), CPUMSPerJob: math.Inf(1)}
	var allocMB, grouped float64
	for _, s := range segs {
		best.P50MS = min(best.P50MS, s.P50MS)
		best.JobsPerS = max(best.JobsPerS, s.JobsPerS)
		best.CPUMSPerJob = min(best.CPUMSPerJob, s.CPUMSPerJob)
		allocMB += s.AllocMB
		grouped += float64(s.Jobs)
	}
	values := map[string]float64{
		"setup_s":          setupS,
		"job_ms_p50":       best.P50MS,
		"jobs_per_s":       best.JobsPerS,
		"cpu_ms_per_job":   best.CPUMSPerJob,
		"alloc_mb_per_job": allocMB / grouped,
	}
	for _, m := range endToEnd {
		d.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
	}
	jobs := float64(len(sortedMS))
	d.Diagnostics = map[string]metricValue{
		"job_ms_p90":         {percentile(sortedMS, 90), "ms"},
		"job_ms_p50_window":  {percentile(sortedMS, 50), "ms"},
		"jobs_per_s_window":  {jobs / timed.Results[len(timed.Results)-1].End.Sub(timed.Start).Seconds(), "1/s"},
		"peak_rss_mb":        {peakRSSMB(), "MB"},
		"fail_ratio":         {float64(d.Failed) / float64(d.Attempted), "ratio"},
		"segments":           {float64(len(segs)), "count"},
		"segment_p50_spread": {segmentSpread(segs), "ratio"},
	}
}

// layerValues collects per-layer metric values by name.
type layerValues map[string]float64
