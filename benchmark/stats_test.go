package main

import (
	"math"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {130, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
}

func TestSegmentsAreWholeCycles(t *testing.T) {
	start := time.Unix(1000, 0)
	job := func(i int, elapsedMS float64) *jobResult {
		// Job i ends 100 ms after job i-1, by when the process has used
		// 150 ms more CPU and allocated 2 MB more.
		n := time.Duration(i + 1)
		return &jobResult{
			Elapsed: time.Duration(elapsedMS * float64(time.Millisecond)),
			End:     start.Add(n * 100 * time.Millisecond), CPUEnd: time.Second + n*150*time.Millisecond,
			AllocEnd: uint64(i+1) * 2 << 20,
		}
	}
	p := passStats{CycleLen: 4, Start: start, CPUStart: time.Second}
	for i, e := range []float64{10, 20, 30, 40, 11, 21, 31, 41, 12, 22, 32, 42, 13, 23} { // three cycles and a half
		p.Results = append(p.Results, job(i, e))
	}
	segs := p.segments(2) // cycle 0, then cycles 1 and 2; the last two jobs are in no group
	if len(segs) != 2 || segs[0].Jobs != 4 || segs[1].Jobs != 8 {
		t.Fatalf("segments = %+v, want two groups of 4 and 8 jobs", segs)
	}
	for i, want := range []segment{
		{Jobs: 4, P50MS: 20, JobsPerS: 10, CPUMSPerJob: 150, AllocMB: 8},
		{Jobs: 8, P50MS: 22, JobsPerS: 10, CPUMSPerJob: 150, AllocMB: 16},
	} {
		got := segs[i]
		if got.Jobs != want.Jobs || got.P50MS != want.P50MS || math.Abs(got.JobsPerS-want.JobsPerS) > 1e-9 || math.Abs(got.CPUMSPerJob-want.CPUMSPerJob) > 1e-9 || got.AllocMB != want.AllocMB {
			t.Errorf("group %d = %+v, want %+v", i, got, want)
		}
	}
	if got := p.segments(6); len(got) != 3 {
		t.Errorf("three whole cycles split into %d groups, want 3", len(got))
	}
	short := passStats{CycleLen: 48, Start: start, CPUStart: time.Second, Results: p.Results[:5]}
	if got := short.segments(6); len(got) != 1 || got[0].Jobs != 5 {
		t.Errorf("a pass shorter than a cycle gave %+v, want one group of all 5 jobs", got)
	}
}
