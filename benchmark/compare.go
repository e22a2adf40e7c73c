package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// readJSON decodes the file at path into a new T.
func readJSON[T any](path string) (*T, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	v := new(T)
	if err := json.Unmarshal(buf, v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readJSON[resultFile](pathA)
	b, errB := readJSON[resultFile](pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if !compareResults(a, b, stdout) {
		return 1
	}
	return 0
}

// worseBy is by how much of a's value b is worse, in the metric's direction;
// negative when b is better.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareResults prints, per workload, how much worse b is than a on every
// end-to-end metric against the metric's bound, and checks that the
// exact-count per-layer metrics are identical. It reports whether b passes:
// both runs correct, no metric worse by more than its bound, no exact count
// changed.
func compareResults(a, b *resultFile, w io.Writer) bool {
	ok := true
	if a.Seed != b.Seed || a.Scale != b.Scale || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "FAIL settings differ: seed %d/%d, scale %g/%g, seconds %g/%g\n", a.Seed, b.Seed, a.Scale, b.Scale, a.Seconds, b.Seconds)
		ok = false
	}
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "FAIL %s: missing from a result file\n", wl.Name)
			ok = false
			continue
		}
		fmt.Fprintf(w, "%s\n", wl.Name)
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "  FAIL incorrect run: a correct=%v (%d/%d failed), b correct=%v (%d/%d failed)\n",
				ra.Correct, ra.Failed, ra.Attempted, rb.Correct, rb.Failed, rb.Attempted)
			ok = false
		}
		for _, m := range endToEnd {
			va, vb := ra.EndToEnd[m.Name].Value, rb.EndToEnd[m.Name].Value
			worse := worseBy(m.Better, va, vb)
			verdict := "ok"
			if worse > m.Bound {
				verdict = "FAIL"
				ok = false
			}
			fmt.Fprintf(w, "  %-4s %-18s %12.4f -> %12.4f %-4s worse by %+6.1f%% (bound %.0f%%)\n", verdict, m.Name, va, vb, m.Unit, 100*worse, 100*m.Bound)
		}
		for _, m := range perLayer {
			va, vb := ra.PerLayer[m.Name].Value, rb.PerLayer[m.Name].Value
			if m.Exact && va != vb {
				fmt.Fprintf(w, "  FAIL %-34s %v != %v (exact count)\n", m.Name, va, vb)
				ok = false
			}
		}
		if ra.Noisy || rb.Noisy {
			fmt.Fprintf(w, "  note: marked noisy (calibration drift a=%.3f b=%.3f)\n", ra.CalibDrift, rb.CalibDrift)
		}
	}
	return ok
}
