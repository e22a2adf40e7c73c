// Command benchmark is the repo's one benchmark: four workloads over the
// whole miner, end-to-end metrics with tracing off, and a traced run with
// per-layer metrics and isolated layer probes. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
)

// defaultSeconds is the timed pass's length; BENCHMARK.json's run_seconds
// repeats it.
const defaultSeconds = 20

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    string
		seed    = fs.Int64("seed", 1, "seed of the generated inputs and schedules")
		seconds float64
		trace   = fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: traced pass, per-layer metrics and layer probes")
		smoke   = fs.Bool("smoke", false, "quarter-size data, 1 s windows, one set-up: checks that everything runs, measures nothing")
		compare = fs.Bool("compare", false, "compare two result.json files: -compare a.json b.json")
		out     = fs.String("out", filepath.Join("benchmark", "out"), "directory for result.json, run details, traces and spill files")
	)
	fs.StringVar(&name, "workload", "", "run this one workload in this process and print one result line; default: all four, each in a child process")
	fs.StringVar(&name, "only", "", "alias of -workload")
	fs.Float64Var(&seconds, "seconds", defaultSeconds, "length of the timed pass")
	fs.Float64Var(&seconds, "window", defaultSeconds, "alias of -seconds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	cfg := runConfig{Seed: *seed, Seconds: seconds, Trace: *trace == 1, Scale: 1, SetupReps: 5, OutDir: *out}
	if *smoke {
		cfg.Smoke, cfg.Scale, cfg.Seconds, cfg.SetupReps = true, 0.25, 1, 1
	}
	if name == "" {
		return runAll(cfg, stdout, stderr)
	}
	w := workloadByName(name)
	if w == nil {
		fmt.Fprintf(stderr, "unknown workload %q\n", name)
		return 2
	}
	d, err := runOne(w, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printDetail(stderr, d)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{d.Correct, d.Attempted, d.Failed, d.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func detailPath(dir, workload string, trace int) string {
	return filepath.Join(dir, fmt.Sprintf("%s.trace%d.json", workload, trace))
}

// runOne runs one workload in this process and writes its detail file.
func runOne(w *workload, cfg runConfig) (*runDetail, error) {
	runtime.GOMAXPROCS(engineWorkers)
	tmp, err := makeTmpDir(cfg.OutDir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	cfg.TmpDir = tmp
	d, err := runWorkload(context.Background(), w, cfg)
	if err != nil {
		return nil, err
	}
	buf, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return nil, err
	}
	return d, os.WriteFile(detailPath(cfg.OutDir, w.Name, d.Trace), buf, 0o644)
}

func printDetail(w io.Writer, d *runDetail) {
	fmt.Fprintf(w, "%s seed=%d trace=%d: %d attempted, %d failed, %d timed samples (highest supported percentile p%.0f), calib_drift=%.3f noisy=%v\n",
		d.Workload, d.Seed, d.Trace, d.Attempted, d.Failed, d.Samples, d.HighestPercentile, d.CalibDrift, d.Noisy)
	printMetrics(w, d.Metrics)
	for _, name := range sortedKeys(d.Diagnostics) {
		fmt.Fprintf(w, "  diag %-29s %16.4f %s\n", name, d.Diagnostics[name].Value, d.Diagnostics[name].Unit)
	}
	for _, name := range sortedKeys(d.SelfMSPerJob) {
		fmt.Fprintf(w, "  self %-34s %12.4f ms/job\n", name, d.SelfMSPerJob[name])
	}
	for _, f := range d.Failures {
		fmt.Fprintln(w, "  FAIL", f)
	}
}

func printMetrics(w io.Writer, ms map[string]metricValue) {
	for _, name := range sortedKeys(ms) {
		fmt.Fprintf(w, "  %-34s %16.4f %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// resultFile is result.json: both runs of every workload, folded.
type resultFile struct {
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Scale     float64                    `json:"scale"`
	Env       envInfo                    `json:"env"`
	Correct   bool                       `json:"correct"`
	Failures  []string                   `json:"failures,omitempty"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Correct           bool                   `json:"correct"`
	Noisy             bool                   `json:"noisy"`
	CalibDrift        float64                `json:"calib_drift"`
	Attempted         int                    `json:"attempted"`
	Failed            int                    `json:"failed"`
	Samples           int                    `json:"samples"`
	HighestPercentile float64                `json:"highest_percentile"`
	EndToEnd          map[string]metricValue `json:"end_to_end"`
	Diagnostics       map[string]metricValue `json:"diagnostics"`
	PerLayer          map[string]metricValue `json:"per_layer"`
	SelfMSPerJob      map[string]float64     `json:"self_ms_per_job"`
	RefHashes         map[string]string      `json:"ref_hashes"`
	Failures          []string               `json:"failures,omitempty"`
}

// runAll runs the four workloads one after another, each pass in a fresh
// child process so that heap, caches and peak RSS do not leak from one
// workload into the next, then checks what only holds across workloads and
// writes result.json.
func runAll(cfg runConfig, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	res, err := runEach(cfg, func(w *workload, cfg runConfig) (*runDetail, error) {
		args := []string{"-workload", w.Name, "-seed", fmt.Sprint(cfg.Seed), "-seconds", fmt.Sprint(cfg.Seconds), "-out", cfg.OutDir}
		trace := 0
		if cfg.Trace {
			trace = 1
			args = append(args, "-trace", "1")
		}
		if cfg.Smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = io.Discard, stderr // the child's result line is also in its detail file
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s trace=%d: %w", w.Name, trace, err)
		}
		return readJSON[runDetail](detailPath(cfg.OutDir, w.Name, trace))
	})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	for _, w := range workloads {
		wr := res.Workloads[w.Name]
		fmt.Fprintf(stdout, "%s: correct=%v noisy=%v failed=%d/%d samples=%d\n", w.Name, wr.Correct, wr.Noisy, wr.Failed, wr.Attempted, wr.Samples)
		printMetrics(stdout, wr.EndToEnd)
		printMetrics(stdout, wr.PerLayer)
	}
	for _, f := range res.Failures {
		fmt.Fprintln(stdout, "FAIL", f)
	}
	buf, err := json.MarshalIndent(res, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(cfg.OutDir, "result.json"), buf, 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runEach gets both runs of every workload from runPass, folds them into one
// result and applies the cross-workload checks.
func runEach(cfg runConfig, runPass func(*workload, runConfig) (*runDetail, error)) (*resultFile, error) {
	res := &resultFile{Seed: cfg.Seed, Seconds: cfg.Seconds, Scale: cfg.Scale, Env: readEnv(), Correct: true, Workloads: map[string]*workloadResult{}}
	for _, w := range workloads {
		wr := &workloadResult{Correct: true}
		res.Workloads[w.Name] = wr
		for _, trace := range []bool{false, true} {
			cfg.Trace = trace
			d, err := runPass(w, cfg)
			if err != nil {
				return nil, err
			}
			wr.fold(d)
		}
		res.Correct = res.Correct && wr.Correct
	}
	crossChecks(res)
	return res, nil
}

func (wr *workloadResult) fold(d *runDetail) {
	wr.Correct = wr.Correct && d.Correct
	wr.Noisy = wr.Noisy || d.Noisy
	wr.CalibDrift = max(wr.CalibDrift, d.CalibDrift)
	wr.Attempted += d.Attempted
	wr.Failed += d.Failed
	wr.Failures = append(wr.Failures, d.Failures...)
	wr.RefHashes = d.RefHashes
	if d.Trace == 0 {
		wr.EndToEnd, wr.Diagnostics, wr.Samples, wr.HighestPercentile = d.Metrics, d.Diagnostics, d.Samples, d.HighestPercentile
	} else {
		wr.PerLayer, wr.SelfMSPerJob = d.Metrics, d.SelfMSPerJob
	}
}

// crossChecks asserts what relates two workloads: dcand-loose mines datasets
// that dseq-loose mines too, to the same answers, and D-CAND ships more bytes
// for a loose constraint (the paper's communication-cost ordering, Fig. 9c).
func crossChecks(res *resultFile) {
	dseq, dcand := res.Workloads["dseq-loose"], res.Workloads["dcand-loose"]
	for q, h := range dcand.RefHashes {
		if dseq.RefHashes[q] != h {
			res.Correct = false
			res.Failures = append(res.Failures, fmt.Sprintf("dseq-loose and dcand-loose disagree on the reference answer of %s", q))
			break
		}
	}
	a, b := dseq.PerLayer["mapreduce.shuffle_bytes"].Value, dcand.PerLayer["mapreduce.shuffle_bytes"].Value
	if !(b > a) {
		res.Correct = false
		res.Failures = append(res.Failures, fmt.Sprintf("dcand-loose shuffled %.0f bytes, not more than dseq-loose's %.0f", b, a))
	}
}
