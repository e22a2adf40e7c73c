package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload both ways at smoke scale, in this process,
// through the same entry point as the command line: every answer and every
// layer check must hold, every metric of the tables must be reported, and the
// all-workloads fold with its cross-workload checks must accept the result.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	start := time.Now()
	out := t.TempDir()
	details, err := runEach(runConfig{Seed: 1, Seconds: 1, Scale: 0.25, SetupReps: 1, Smoke: true, OutDir: out}, func(w *workload, cfg runConfig) (*runDetail, error) {
		var stdout strings.Builder
		trace := 0
		if cfg.Trace {
			trace = 1
		}
		if code := run([]string{"-smoke", "-workload", w.Name, "-trace", fmt.Sprint(trace), "-out", out}, &stdout, io.Discard); code != 0 {
			t.Fatalf("%s trace=%d: exit code %d", w.Name, trace, code)
		}
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]metricValue
		}
		if err := json.Unmarshal([]byte(stdout.String()), &line); err != nil {
			t.Fatalf("%s trace=%d: result line %q: %v", w.Name, trace, stdout.String(), err)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.Name, trace, line.Correct, line.Attempted, line.Failed)
		}
		want := map[string]string{}
		if cfg.Trace {
			for _, m := range perLayer {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range endToEnd {
				want[m.Name] = m.Unit
			}
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("%s trace=%d: %d metrics reported, want %d", w.Name, trace, len(line.Metrics), len(want))
		}
		for name, unit := range want {
			if got, ok := line.Metrics[name]; !ok || got.Unit != unit {
				t.Errorf("%s trace=%d: metric %s = %+v (present %v), want unit %q", w.Name, trace, name, got, ok, unit)
			}
		}
		return readJSON[runDetail](detailPath(out, w.Name, trace))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !details.Correct {
		t.Errorf("the folded result is not correct: %v", details.Failures)
	}
	for _, w := range workloads {
		wr := details.Workloads[w.Name]
		for _, m := range endToEnd {
			if wr.EndToEnd[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, wr.EndToEnd[m.Name].Value)
			}
		}
		if len(wr.SelfMSPerJob) == 0 {
			t.Errorf("%s: no span self times", w.Name)
		}
		if _, err := readChromeTrace(filepath.Join(out, w.Name+".trace.json")); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	// What separates the workloads, in the recorded numbers.
	layer := func(workload, metric string) float64 { return details.Workloads[workload].PerLayer[metric].Value }
	if layer("serve-selective", "service.miss_ms_p50") <= 0 || layer("dseq-loose", "service.miss_ms_p50") != 0 {
		t.Error("service.* must be measured on serve-selective only")
	}
	if layer("cluster-stream", "transport.wire_bytes") <= 0 || layer("cluster-stream", "cluster.local_ms") <= 0 || layer("dcand-loose", "transport.wire_bytes") != 0 {
		t.Error("wire bytes and the local comparison must be measured on cluster-stream only")
	}
	if layer("dcand-loose", "mapreduce.shuffle_bytes") <= layer("dseq-loose", "mapreduce.shuffle_bytes") {
		t.Error("D-CAND must shuffle more than D-SEQ on the loose constraint")
	}
	// Two results of one commit and seed agree on the exact counts.
	if !compareResults(details, details, io.Discard) {
		t.Error("a result does not compare equal to itself")
	}
	t.Logf("smoke took %v", time.Since(start))
}

func readChromeTrace(path string) (int, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &trace); err != nil {
		return 0, err
	}
	if len(trace.TraceEvents) == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	return len(trace.TraceEvents), nil
}
