package main

import (
	"io"
	"strings"
	"testing"
)

// fakeResult is a complete result file with value v for every metric.
func fakeResult(v float64) *resultFile {
	r := &resultFile{Seed: 1, Seconds: defaultSeconds, Scale: 1, Correct: true, Workloads: map[string]*workloadResult{}}
	for _, w := range workloads {
		wr := &workloadResult{Correct: true, Attempted: 100, EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}
		for _, m := range endToEnd {
			wr.EndToEnd[m.Name] = metricValue{v, m.Unit}
		}
		for _, m := range perLayer {
			wr.PerLayer[m.Name] = metricValue{v, m.Unit}
		}
		r.Workloads[w.Name] = wr
	}
	return r
}

func TestCompareResults(t *testing.T) {
	set := func(r *resultFile, workload, metric string, v float64) *resultFile {
		wr := r.Workloads[workload]
		if _, ok := wr.EndToEnd[metric]; ok {
			wr.EndToEnd[metric] = metricValue{v, ""}
		} else {
			wr.PerLayer[metric] = metricValue{v, ""}
		}
		return r
	}
	for _, c := range []struct {
		name string
		b    *resultFile
		want bool
	}{
		{"identical", fakeResult(100), true},
		{"latency worse within the bound", set(fakeResult(100), "dseq-loose", "job_ms_p50", 110), true},
		{"latency worse beyond the bound", set(fakeResult(100), "dseq-loose", "job_ms_p50", 130), false},
		{"latency much better", set(fakeResult(100), "serve-selective", "job_ms_p50", 10), true},
		{"throughput lower beyond the bound", set(fakeResult(100), "cluster-stream", "jobs_per_s", 70), false},
		{"throughput higher", set(fakeResult(100), "cluster-stream", "jobs_per_s", 170), true},
		{"exact count changed", set(fakeResult(100), "dcand-loose", "mapreduce.shuffle_bytes", 101), false},
		{"timing of a layer changed", set(fakeResult(100), "dcand-loose", "mapreduce.map_ms", 300), true},
	} {
		if got := compareResults(fakeResult(100), c.b, io.Discard); got != c.want {
			t.Errorf("%s: compareResults = %v, want %v", c.name, got, c.want)
		}
	}

	incorrect := fakeResult(100)
	incorrect.Workloads["dseq-loose"].Correct = false
	var out strings.Builder
	if compareResults(fakeResult(100), incorrect, &out) {
		t.Error("an incorrect run passed the comparison")
	}
	if !strings.Contains(out.String(), "FAIL incorrect run") {
		t.Errorf("comparison output does not name the incorrect run:\n%s", out.String())
	}
	otherSeed := fakeResult(100)
	otherSeed.Seed = 2
	if compareResults(fakeResult(100), otherSeed, io.Discard) {
		t.Error("results of different seeds compared as equal")
	}
}
