package benchcmp

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// toleranceFlags collects repeated -tolerance name=ratio flags.
type toleranceFlags map[string]float64

func (t toleranceFlags) String() string { return fmt.Sprintf("%v", map[string]float64(t)) }

func (t toleranceFlags) Set(v string) error {
	name, ratioStr, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=ratio, got %q", v)
	}
	ratio, err := strconv.ParseFloat(ratioStr, 64)
	if err != nil || ratio <= 0 {
		return fmt.Errorf("want a positive ratio in %q", v)
	}
	t[name] = ratio
	return nil
}

// RunCLI executes one benchgate subcommand (record, compare, emit,
// normalize) with injected streams, so cmd/benchgate stays a thin shim and
// the command logic is testable. It returns an error instead of exiting; a
// failing gate is an error.
func RunCLI(args []string, stdin io.Reader, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: benchgate record|compare|emit|normalize|serving [flags]")
	}
	switch cmd := args[0]; cmd {
	case "record":
		return runRecord(args[1:], stdin, stdout)
	case "compare":
		return runCompare(args[1:], stdin, stdout)
	case "emit":
		return runEmit(args[1:], stdout)
	case "normalize":
		return runNormalize(args[1:], stdin, stdout)
	case "serving":
		return runServing(args[1:], stdout)
	default:
		return fmt.Errorf("benchgate: unknown subcommand %q (want record, compare, emit, normalize or serving)", cmd)
	}
}

func runRecord(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	out := fs.String("out", "BENCH_baseline.json", "baseline file to write")
	command := fs.String("command", "go test -run '^$' -bench . -benchtime=3x -count=5", "provenance note stored in the baseline")
	tolerance := toleranceFlags{}
	fs.Var(tolerance, "tolerance", "per-benchmark time-ratio gate as name=ratio (repeatable): the benchmark leaves the geomeans and is gated individually at this bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	samples, err := ParseAll(stdin)
	if err != nil {
		return err
	}
	b := &Baseline{
		Schema:     2,
		Command:    *command,
		GoVersion:  runtime.Version(),
		Benchmarks: samples.Ns,
	}
	if len(samples.Bytes) > 0 {
		b.BytesPerOp = samples.Bytes
	}
	if len(samples.Allocs) > 0 {
		b.AllocsPerOp = samples.Allocs
	}
	if len(tolerance) > 0 {
		for name := range tolerance {
			if _, ok := samples.Ns[name]; !ok {
				return fmt.Errorf("benchgate: -tolerance names %s, which the recorded run does not contain", name)
			}
		}
		b.Tolerance = tolerance
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := WriteBaseline(f, b); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %d benchmarks to %s (schema %d)\n", len(samples.Ns), *out, b.Schema)
	for _, name := range SortedNames(samples.Ns) {
		fmt.Fprintf(stdout, "  %-60s median %12.0f ns/op", name, Median(samples.Ns[name]))
		if a, ok := samples.Allocs[name]; ok {
			fmt.Fprintf(stdout, " %10.0f allocs/op", Median(a))
		}
		fmt.Fprintf(stdout, " (%d samples)\n", len(samples.Ns[name]))
	}
	return nil
}

func runCompare(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	baselinePath := fs.String("baseline", "BENCH_baseline.json", "baseline file to compare against")
	maxRatio := fs.Float64("max-ratio", 1.15, "fail when the geomean time ratio exceeds this bound")
	maxAllocRatio := fs.Float64("max-alloc-ratio", 1.15, "fail when the geomean allocs/op ratio exceeds this bound")
	calibration := fs.String("calibration", "BenchmarkCalibration", "machine-speed calibration benchmark (excluded from the geomean; empty disables)")
	summaryPath := fs.String("summary", "", "append the comparison as a markdown table to this file (e.g. $GITHUB_STEP_SUMMARY; empty disables)")
	jsonPath := fs.String("json", "", "write the raw comparison report as JSON to this file (empty disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	baseline, err := readBaselineFile(*baselinePath)
	if err != nil {
		return err
	}
	current, err := ParseAll(stdin)
	if err != nil {
		return err
	}
	rep, err := CompareFull(baseline, current, *calibration)
	if err != nil {
		return err
	}
	rep.Format(stdout, *maxRatio)
	if *summaryPath != "" {
		f, err := os.OpenFile(*summaryPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		rep.FormatMarkdown(f, *maxRatio, *maxAllocRatio)
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(rep.MissingInCurrent) > 0 {
		return fmt.Errorf("benchgate: %d baseline benchmarks were not run; the gate cannot pass on partial results", len(rep.MissingInCurrent))
	}
	if rep.Geomean > *maxRatio {
		return fmt.Errorf("benchgate: geomean ratio %.3f exceeds the %.3f gate — performance regression", rep.Geomean, *maxRatio)
	}
	if rep.AllocGeomean > *maxAllocRatio {
		return fmt.Errorf("benchgate: allocation geomean ratio %.3f exceeds the %.3f gate — allocation regression", rep.AllocGeomean, *maxAllocRatio)
	}
	if fails := rep.GateFailures(); len(fails) > 0 {
		return fmt.Errorf("benchgate: %s", strings.Join(fails, "; "))
	}
	fmt.Fprintln(stdout, "benchgate: PASS")
	return nil
}

func runEmit(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("emit", flag.ContinueOnError)
	baselinePath := fs.String("baseline", "BENCH_baseline.json", "baseline file to render")
	if err := fs.Parse(args); err != nil {
		return err
	}
	baseline, err := readBaselineFile(*baselinePath)
	if err != nil {
		return err
	}
	return EmitText(stdout, baseline)
}

func runNormalize(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("normalize", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	samples, err := ParseAll(stdin)
	if err != nil {
		return err
	}
	return EmitText(stdout, &Baseline{
		Schema:      2,
		Benchmarks:  samples.Ns,
		BytesPerOp:  samples.Bytes,
		AllocsPerOp: samples.Allocs,
	})
}

// runServing gates a seqmine-bench run (BENCH_serving.json produced with
// -out) against the committed serving baseline: p99 latency per workload,
// calibration-scaled, plus result-hash equivalence.
func runServing(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("serving", flag.ContinueOnError)
	baselinePath := fs.String("baseline", "BENCH_serving.json", "committed serving baseline to compare against")
	currentPath := fs.String("current", "", "serving results of this run (seqmine-bench -out file; required)")
	maxRatio := fs.Float64("max-p99-ratio", 1.15, "fail when the geomean p99 ratio exceeds this bound")
	summaryPath := fs.String("summary", "", "append the comparison as a markdown table to this file (e.g. $GITHUB_STEP_SUMMARY; empty disables)")
	jsonPath := fs.String("json", "", "write the raw comparison report as JSON to this file (empty disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *currentPath == "" {
		return fmt.Errorf("benchgate serving: -current is required")
	}
	baseline, err := readServingFile(*baselinePath)
	if err != nil {
		return err
	}
	current, err := readServingFile(*currentPath)
	if err != nil {
		return err
	}
	rep, err := CompareServing(baseline, current)
	if err != nil {
		return err
	}
	rep.Format(stdout, *maxRatio)
	if *summaryPath != "" {
		f, err := os.OpenFile(*summaryPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		rep.FormatMarkdown(f, *maxRatio)
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(rep.MissingInCurrent) > 0 {
		return fmt.Errorf("benchgate: %d baseline serving workloads were not run; the gate cannot pass on partial results", len(rep.MissingInCurrent))
	}
	if len(rep.HashMismatches) > 0 {
		return fmt.Errorf("benchgate: %d workload result hashes diverged from the baseline — mining output changed "+
			"(re-record the baseline if intentional)", len(rep.HashMismatches))
	}
	if rep.Geomean > *maxRatio {
		return fmt.Errorf("benchgate: serving p99 geomean ratio %.3f exceeds the %.3f gate — latency regression", rep.Geomean, *maxRatio)
	}
	fmt.Fprintln(stdout, "benchgate: PASS")
	return nil
}

func readServingFile(path string) (*ServingBaseline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadServingBaseline(f)
}

func readBaselineFile(path string) (*Baseline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBaseline(f)
}
