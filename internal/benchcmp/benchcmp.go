// Package benchcmp parses `go test -bench` output and gates performance
// regressions against a committed baseline (BENCH_baseline.json at the repo
// root). The CI bench-compare job records the baseline once per runner class
// and fails a change when the geometric mean of the per-benchmark time
// ratios (current / baseline) exceeds a configured bound.
//
// Because the committed baseline may have been produced on different
// hardware than the runner executing the comparison, the gate normalizes by
// a calibration benchmark — a fixed, dataset-independent CPU workload
// (BenchmarkCalibration in the root package) that scales with machine speed
// but not with the code under test. The calibration ratio divides out the
// constant machine factor and is excluded from the geomean.
package benchcmp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed benchmark reference (BENCH_baseline.json):
// schema 2, ns/op samples plus the allocation metrics of `go test -benchmem`
// (B/op, allocs/op).
type Baseline struct {
	// Schema versions the file format.
	Schema int `json:"schema"`
	// Command documents how the samples were produced.
	Command string `json:"command"`
	// GoVersion is the toolchain that produced the samples.
	GoVersion string `json:"go_version,omitempty"`
	// Benchmarks maps the normalized benchmark name (GOMAXPROCS suffix
	// stripped) to its ns/op samples.
	Benchmarks map[string][]float64 `json:"benchmarks"`
	// BytesPerOp maps the normalized benchmark name to its B/op samples
	// (informational, not gated).
	BytesPerOp map[string][]float64 `json:"bytes_per_op,omitempty"`
	// AllocsPerOp maps the normalized benchmark name to its allocs/op
	// samples (gated like time, but without calibration because allocation
	// counts are machine-independent).
	AllocsPerOp map[string][]float64 `json:"allocs_per_op,omitempty"`
	// Tolerance maps a normalized benchmark name to its own time-ratio
	// gate. A toleranced benchmark is excluded from both geomeans (its
	// noise would otherwise dominate the mean) and gated individually at
	// this bound instead — for inherently noisy wall-clock benchmarks like
	// the TCP shuffle-overlap runs, whose medians swing 2-3x between
	// otherwise identical runs. Recorded with `benchgate record
	// -tolerance name=ratio`.
	Tolerance map[string]float64 `json:"tolerance,omitempty"`
}

// Samples holds one benchmark run's parsed samples per metric, keyed by
// normalized benchmark name. Bytes and Allocs are empty when the run was not
// executed with -benchmem.
type Samples struct {
	Ns     map[string][]float64
	Bytes  map[string][]float64
	Allocs map[string][]float64
}

// benchLine matches one result line of `go test -bench` output, with the
// optional -benchmem columns, e.g.
//
//	BenchmarkAlgorithms_N1/D-SEQ-8   	     385	   3104660 ns/op	  373049 B/op	    3207 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op(?:\s+[0-9.]+ MB/s)?(?:\s+([0-9.]+) B/op)?(?:\s+([0-9]+) allocs/op)?`)

// cpuSuffix strips the trailing -N GOMAXPROCS marker so runs from machines
// with different core counts compare under the same name.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// NormalizeName removes the GOMAXPROCS suffix from a benchmark name.
func NormalizeName(name string) string { return cpuSuffix.ReplaceAllString(name, "") }

// Parse reads `go test -bench` output and returns ns/op samples keyed by
// normalized benchmark name.
func Parse(r io.Reader) (map[string][]float64, error) {
	s, err := ParseAll(r)
	if err != nil {
		return nil, err
	}
	return s.Ns, nil
}

// ParseAll reads `go test -bench` output and returns all samples it carries:
// ns/op always, plus B/op and allocs/op when the run used -benchmem.
func ParseAll(r io.Reader) (*Samples, error) {
	out := &Samples{
		Ns:     make(map[string][]float64),
		Bytes:  make(map[string][]float64),
		Allocs: make(map[string][]float64),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchcmp: parsing %q: %w", sc.Text(), err)
		}
		name := NormalizeName(m[1])
		out.Ns[name] = append(out.Ns[name], ns)
		if m[3] != "" {
			b, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				return nil, fmt.Errorf("benchcmp: parsing %q: %w", sc.Text(), err)
			}
			out.Bytes[name] = append(out.Bytes[name], b)
		}
		if m[4] != "" {
			a, err := strconv.ParseFloat(m[4], 64)
			if err != nil {
				return nil, fmt.Errorf("benchcmp: parsing %q: %w", sc.Text(), err)
			}
			out.Allocs[name] = append(out.Allocs[name], a)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out.Ns) == 0 {
		return nil, fmt.Errorf("benchcmp: no benchmark result lines found")
	}
	return out, nil
}

// Median returns the middle sample (mean of the middle two for even counts).
func Median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Result is one benchmark's comparison against the baseline.
type Result struct {
	Name     string  `json:"name"`
	Baseline float64 `json:"baseline"` // median in the baseline
	Current  float64 `json:"current"`  // median in the current run
	Ratio    float64 `json:"ratio"`    // current/baseline (time: after calibration scaling; allocs: +1-smoothed)
}

// TolerancedResult is one toleranced benchmark's comparison: gated at its own
// bound instead of contributing to the geomean.
type TolerancedResult struct {
	Result
	// Gate is the benchmark's individual ratio bound (Baseline.Tolerance).
	Gate float64 `json:"gate"`
}

// Report is the outcome of a comparison.
type Report struct {
	// Results holds the compared time benchmarks, sorted by descending ratio.
	Results []Result `json:"time"`
	// Geomean is the geometric mean of the time ratios.
	Geomean float64 `json:"time_geomean"`
	// Toleranced holds the benchmarks with per-benchmark tolerance bounds
	// (excluded from Geomean; time ratios, after calibration scaling).
	Toleranced []TolerancedResult `json:"toleranced,omitempty"`
	// TolerancedAllocs holds the toleranced benchmarks' allocs/op
	// comparisons (excluded from AllocGeomean, gated at the same
	// per-benchmark bound; +1-smoothed like AllocResults).
	TolerancedAllocs []TolerancedResult `json:"toleranced_allocs,omitempty"`
	// CalibrationScale is the machine-speed factor divided out of every
	// time ratio (1 when no calibration benchmark was present on both sides).
	CalibrationScale float64 `json:"calibration_scale"`
	// AllocResults holds the compared allocs/op benchmarks, sorted by
	// descending ratio. Allocation counts are machine-independent, so no
	// calibration applies; ratios are smoothed as (current+1)/(baseline+1) so
	// zero-alloc benchmarks stay well-defined.
	AllocResults []Result `json:"allocs,omitempty"`
	// AllocGeomean is the geometric mean of the smoothed allocation ratios
	// (0 when the baseline carries no allocation samples).
	AllocGeomean float64 `json:"allocs_geomean,omitempty"`
	// MissingInCurrent are baseline benchmarks absent from the current run.
	MissingInCurrent []string `json:"missing_in_current,omitempty"`
	// MissingInBaseline are current benchmarks absent from the baseline
	// (informational — new benchmarks are not gated).
	MissingInBaseline []string `json:"missing_in_baseline,omitempty"`
}

// Compare evaluates the current samples against the baseline, normalizing by
// calibration (the normalized name of the calibration benchmark; empty
// disables normalization). Only benchmarks present in the baseline are
// gated.
func Compare(baseline *Baseline, current map[string][]float64, calibration string) (*Report, error) {
	if len(baseline.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchcmp: baseline holds no benchmarks")
	}
	rep := &Report{CalibrationScale: 1}
	if calibration != "" {
		base, okB := baseline.Benchmarks[calibration]
		cur, okC := current[calibration]
		switch {
		case okB && okC:
			rep.CalibrationScale = Median(cur) / Median(base)
		case okB && !okC:
			// The baseline expects calibration but the current run skipped
			// it: without the scale, cross-machine ratios are meaningless.
			// Surface it as a missing benchmark so the gate refuses to pass
			// on the partial run instead of silently comparing raw ns/op.
			rep.MissingInCurrent = append(rep.MissingInCurrent, calibration)
		}
	}

	logSum, n := 0.0, 0
	for name, baseSamples := range baseline.Benchmarks {
		if name == calibration {
			continue
		}
		curSamples, ok := current[name]
		if !ok {
			rep.MissingInCurrent = append(rep.MissingInCurrent, name)
			continue
		}
		base, cur := Median(baseSamples), Median(curSamples)
		if base <= 0 || cur <= 0 {
			return nil, fmt.Errorf("benchcmp: non-positive median for %s", name)
		}
		ratio := (cur / base) / rep.CalibrationScale
		res := Result{Name: name, Baseline: base, Current: cur, Ratio: ratio}
		if tol, ok := baseline.Tolerance[name]; ok && tol > 0 {
			rep.Toleranced = append(rep.Toleranced, TolerancedResult{Result: res, Gate: tol})
			continue
		}
		rep.Results = append(rep.Results, res)
		logSum += math.Log(ratio)
		n++
	}
	for name := range current {
		if name == calibration {
			continue
		}
		if _, ok := baseline.Benchmarks[name]; !ok {
			rep.MissingInBaseline = append(rep.MissingInBaseline, name)
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("benchcmp: no benchmark overlaps the baseline")
	}
	rep.Geomean = math.Exp(logSum / float64(n))
	sort.Slice(rep.Results, func(i, j int) bool { return rep.Results[i].Ratio > rep.Results[j].Ratio })
	sort.Slice(rep.Toleranced, func(i, j int) bool { return rep.Toleranced[i].Ratio > rep.Toleranced[j].Ratio })
	sort.Strings(rep.MissingInCurrent)
	sort.Strings(rep.MissingInBaseline)
	return rep, nil
}

// GateFailures lists the toleranced benchmarks whose ratio exceeds their own
// bound, as ready-to-print failure messages. The geomean gates do not cover
// these benchmarks, so a caller enforcing the gates must check this too.
func (r *Report) GateFailures() []string {
	var fails []string
	for _, res := range r.Toleranced {
		if res.Ratio > res.Gate {
			fails = append(fails, fmt.Sprintf("%s time ratio %.3f exceeds its %.3f tolerance", res.Name, res.Ratio, res.Gate))
		}
	}
	for _, res := range r.TolerancedAllocs {
		if res.Ratio > res.Gate {
			fails = append(fails, fmt.Sprintf("%s allocs/op ratio %.3f exceeds its %.3f tolerance", res.Name, res.Ratio, res.Gate))
		}
	}
	return fails
}

// CompareFull is Compare plus the allocation gate: the current run's
// allocs/op are compared benchmark by benchmark with the baseline's (no
// calibration — allocation counts do not depend on machine speed) and their
// +1-smoothed geomean lands in Report.AllocGeomean. A baseline benchmark with
// allocation samples whose current run lacks them (the run skipped -benchmem)
// is reported missing so the gate refuses partial comparisons.
func CompareFull(baseline *Baseline, current *Samples, calibration string) (*Report, error) {
	rep, err := Compare(baseline, current.Ns, calibration)
	if err != nil {
		return nil, err
	}
	logSum, n := 0.0, 0
	for name, baseSamples := range baseline.AllocsPerOp {
		if name == calibration {
			continue
		}
		curSamples, ok := current.Allocs[name]
		if !ok {
			rep.MissingInCurrent = append(rep.MissingInCurrent, name+" (allocs/op)")
			continue
		}
		base, cur := Median(baseSamples), Median(curSamples)
		if base < 0 || cur < 0 {
			return nil, fmt.Errorf("benchcmp: negative allocation median for %s", name)
		}
		ratio := (cur + 1) / (base + 1)
		res := Result{Name: name, Baseline: base, Current: cur, Ratio: ratio}
		if tol, ok := baseline.Tolerance[name]; ok && tol > 0 {
			rep.TolerancedAllocs = append(rep.TolerancedAllocs, TolerancedResult{Result: res, Gate: tol})
			continue
		}
		rep.AllocResults = append(rep.AllocResults, res)
		logSum += math.Log(ratio)
		n++
	}
	if n > 0 {
		rep.AllocGeomean = math.Exp(logSum / float64(n))
	}
	sort.Slice(rep.AllocResults, func(i, j int) bool { return rep.AllocResults[i].Ratio > rep.AllocResults[j].Ratio })
	sort.Slice(rep.TolerancedAllocs, func(i, j int) bool { return rep.TolerancedAllocs[i].Ratio > rep.TolerancedAllocs[j].Ratio })
	sort.Strings(rep.MissingInCurrent)
	return rep, nil
}

// Format renders the report as an aligned table.
func (r *Report) Format(w io.Writer, maxRatio float64) {
	fmt.Fprintf(w, "%-52s %14s %14s %8s\n", "benchmark", "baseline ns/op", "current ns/op", "ratio")
	for _, res := range r.Results {
		marker := ""
		if res.Ratio > maxRatio {
			marker = "  <-- above gate"
		}
		fmt.Fprintf(w, "%-52s %14.0f %14.0f %8.3f%s\n", res.Name, res.Baseline, res.Current, res.Ratio, marker)
	}
	for _, res := range r.Toleranced {
		marker := ""
		if res.Ratio > res.Gate {
			marker = "  <-- above tolerance"
		}
		fmt.Fprintf(w, "%-52s %14.0f %14.0f %8.3f (toleranced, gate %.2f)%s\n", res.Name, res.Baseline, res.Current, res.Ratio, res.Gate, marker)
	}
	if r.CalibrationScale != 1 {
		fmt.Fprintf(w, "calibration scale (machine speed factor): %.3f\n", r.CalibrationScale)
	}
	if len(r.AllocResults) > 0 || len(r.TolerancedAllocs) > 0 {
		fmt.Fprintf(w, "%-52s %14s %14s %8s\n", "benchmark", "base allocs/op", "cur allocs/op", "ratio")
		for _, res := range r.AllocResults {
			marker := ""
			if res.Ratio > maxRatio {
				marker = "  <-- above gate"
			}
			fmt.Fprintf(w, "%-52s %14.0f %14.0f %8.3f%s\n", res.Name, res.Baseline, res.Current, res.Ratio, marker)
		}
		for _, res := range r.TolerancedAllocs {
			marker := ""
			if res.Ratio > res.Gate {
				marker = "  <-- above tolerance"
			}
			fmt.Fprintf(w, "%-52s %14.0f %14.0f %8.3f (toleranced, gate %.2f)%s\n", res.Name, res.Baseline, res.Current, res.Ratio, res.Gate, marker)
		}
	}
	for _, name := range r.MissingInCurrent {
		fmt.Fprintf(w, "warning: %s is in the baseline but was not run\n", name)
	}
	for _, name := range r.MissingInBaseline {
		fmt.Fprintf(w, "note: %s has no baseline entry (not gated)\n", name)
	}
	fmt.Fprintf(w, "geomean ratio %.3f (gate %.3f)\n", r.Geomean, maxRatio)
	if r.AllocGeomean > 0 {
		fmt.Fprintf(w, "allocation geomean ratio %.3f (gate %.3f)\n", r.AllocGeomean, maxRatio)
	}
}

// mapPhaseBench reports whether name is one of the map-side kernel benchmarks
// (pivot analysis, candidate counting, D-CAND's run walk and candidate-NFA
// build) that the CI step summary calls out in their own table section,
// separate from the end-to-end runs.
func mapPhaseBench(name string) bool {
	for _, prefix := range []string{
		"BenchmarkPivotAnalyze", "BenchmarkAnalyze", "BenchmarkMineCount",
		"BenchmarkDCandMap", "BenchmarkForEachRun", "BenchmarkBuilderAddPath", "BenchmarkMinimize", "BenchmarkSerialize",
	} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// markdownTable renders one comparison table, returning how many rows it wrote.
func markdownTable(w io.Writer, results []Result, unit string, gate float64, keep func(string) bool) int {
	rows := 0
	for _, res := range results {
		if !keep(res.Name) {
			continue
		}
		if rows == 0 {
			fmt.Fprintf(w, "| benchmark | baseline %s | current %s | ratio |\n", unit, unit)
			fmt.Fprintf(w, "|---|---:|---:|---:|\n")
		}
		rows++
		cell := fmt.Sprintf("%.3f", res.Ratio)
		if res.Ratio > gate {
			cell = fmt.Sprintf("**%.3f** ⚠", res.Ratio)
		}
		fmt.Fprintf(w, "| %s | %.0f | %.0f | %s |\n", res.Name, res.Baseline, res.Current, cell)
	}
	return rows
}

// FormatMarkdown renders the report as GitHub-flavored markdown tables, for
// publication as a CI step summary. Ratios above the gates are bolded and
// flagged; the map-phase kernel benchmarks get their own section below the
// end-to-end tables.
func (r *Report) FormatMarkdown(w io.Writer, maxRatio, maxAllocRatio float64) {
	notMapPhase := func(name string) bool { return !mapPhaseBench(name) }
	fmt.Fprintf(w, "### Benchmark comparison\n\n")
	markdownTable(w, r.Results, "ns/op", maxRatio, notMapPhase)
	fmt.Fprintf(w, "\nTime geomean **%.3f** (gate %.3f)", r.Geomean, maxRatio)
	if r.CalibrationScale != 1 {
		fmt.Fprintf(w, ", calibration scale %.3f", r.CalibrationScale)
	}
	fmt.Fprintf(w, "\n")
	if len(r.AllocResults) > 0 {
		fmt.Fprintf(w, "\n")
		markdownTable(w, r.AllocResults, "allocs/op", maxAllocRatio, notMapPhase)
		fmt.Fprintf(w, "\nAllocation geomean **%.3f** (gate %.3f)\n", r.AllocGeomean, maxAllocRatio)
	}
	var mapMd bytes.Buffer
	n := markdownTable(&mapMd, r.Results, "ns/op", maxRatio, mapPhaseBench)
	if n > 0 {
		mapMd.WriteString("\n")
	}
	n += markdownTable(&mapMd, r.AllocResults, "allocs/op", maxAllocRatio, mapPhaseBench)
	if n > 0 {
		fmt.Fprintf(w, "\n#### Map-phase kernels\n\n%s", mapMd.String())
	}
	if len(r.Toleranced) > 0 || len(r.TolerancedAllocs) > 0 {
		fmt.Fprintf(w, "\n#### Toleranced benchmarks (own gates, excluded from geomeans)\n\n")
		fmt.Fprintf(w, "| benchmark | metric | baseline | current | ratio | gate |\n|---|---|---:|---:|---:|---:|\n")
		tolRow := func(res TolerancedResult, unit string) {
			cell := fmt.Sprintf("%.3f", res.Ratio)
			if res.Ratio > res.Gate {
				cell = fmt.Sprintf("**%.3f** ⚠", res.Ratio)
			}
			fmt.Fprintf(w, "| %s | %s | %.0f | %.0f | %s | %.2f |\n", res.Name, unit, res.Baseline, res.Current, cell, res.Gate)
		}
		for _, res := range r.Toleranced {
			tolRow(res, "ns/op")
		}
		for _, res := range r.TolerancedAllocs {
			tolRow(res, "allocs/op")
		}
	}
	for _, name := range r.MissingInCurrent {
		fmt.Fprintf(w, "\n⚠ `%s` is in the baseline but was not run\n", name)
	}
	for _, name := range r.MissingInBaseline {
		fmt.Fprintf(w, "\n`%s` has no baseline entry (not gated)\n", name)
	}
}

// WriteBaseline serializes a baseline as deterministic, indented JSON.
func WriteBaseline(w io.Writer, b *Baseline) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// ReadBaseline parses BENCH_baseline.json. A stale or foreign file fails with
// a message that says what to do about it, not just that a number was wrong:
// the gate's most common operational failure is a baseline left behind by an
// older (or newer) toolchain, and "unsupported schema 3" alone sends people
// diffing JSON instead of re-recording.
func ReadBaseline(r io.Reader) (*Baseline, error) {
	var b Baseline
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("benchcmp: parsing baseline: %w", err)
	}
	switch {
	case b.Schema == 0:
		return nil, fmt.Errorf("benchcmp: baseline has no schema field — this is not a benchgate baseline " +
			"(or predates schema versioning); re-record it with `benchgate record`")
	case b.Schema > 2:
		return nil, fmt.Errorf("benchcmp: baseline schema %d is newer than this benchgate understands (max 2); "+
			"update the tool or re-record the baseline with `benchgate record`", b.Schema)
	case b.Schema != 2:
		return nil, fmt.Errorf("benchcmp: baseline schema %d is no longer supported (this benchgate reads schema 2); "+
			"re-record it with `benchgate record`", b.Schema)
	}
	if len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchcmp: baseline (schema %d) holds no benchmarks; re-record with `benchgate record`", b.Schema)
	}
	return &b, nil
}

// EmitText renders a baseline back into `go test -bench` text form (one line
// per sample), which tools like benchstat consume directly.
func EmitText(w io.Writer, b *Baseline) error {
	names := make([]string, 0, len(b.Benchmarks))
	for name := range b.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		bytesS, allocsS := b.BytesPerOp[name], b.AllocsPerOp[name]
		for i, ns := range b.Benchmarks[name] {
			// benchstat requires names to keep the Benchmark prefix; emit a
			// fixed -1 proc suffix so current and baseline align.
			if _, err := fmt.Fprintf(w, "%s-1 \t1\t%s ns/op", name, strconv.FormatFloat(ns, 'f', -1, 64)); err != nil {
				return err
			}
			if i < len(bytesS) {
				if _, err := fmt.Fprintf(w, "\t%.0f B/op", bytesS[i]); err != nil {
					return err
				}
			}
			if i < len(allocsS) {
				if _, err := fmt.Fprintf(w, "\t%.0f allocs/op", allocsS[i]); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// SortedNames lists a sample map's benchmark names.
func SortedNames(m map[string][]float64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
