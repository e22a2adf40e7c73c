package main

import (
	"reflect"
	"slices"
	"testing"
)

func TestScheduleIsSeeded(t *testing.T) {
	w := workloadByName("serve-selective")
	_, queries := w.scaled(1)
	if len(queries) != 36 {
		t.Fatalf("serve-selective has %d distinct queries, want 36", len(queries))
	}
	s1, again, s2 := w.schedule(len(queries), 1), w.schedule(len(queries), 1), w.schedule(len(queries), 2)
	if !reflect.DeepEqual(s1, again) {
		t.Error("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(s1, s2) {
		t.Error("seeds 1 and 2 gave the same schedule")
	}
	if len(s1) != 48 || w.WarmJobs != len(s1) || w.TracedJobs != 3*len(s1) {
		t.Errorf("cycle of %d requests, %d warm-up and %d traced jobs: want 48, one cycle and three", len(s1), w.WarmJobs, w.TracedJobs)
	}
}

// TestScheduleHitsTheResultCacheOnceInFour replays cycles against an LRU of
// the result cache's size: whatever the seed, every query is mined once per
// cycle and every fourth request is a repeat that the cache still holds and
// that was sent long enough ago to have been answered.
func TestScheduleHitsTheResultCacheOnceInFour(t *testing.T) {
	const cacheSize = 8 // startService's ResultCacheSize
	w := workloadByName("serve-selective")
	for seed := int64(1); seed <= 20; seed++ {
		sched := w.schedule(36, seed)
		var lru []int // most recent last
		lastSent := map[int]int{}
		hits, misses := 0, make([]int, 36)
		for i := 0; i < 3*len(sched); i++ {
			q := sched[i%len(sched)]
			at := slices.Index(lru, q)
			counted := i >= len(sched) // the first cycle fills the cache, as the warm-up does
			if at >= 0 {
				lru = slices.Delete(lru, at, at+1)
				if counted {
					hits++
				}
				if gap := i - lastSent[q]; gap < 4 {
					t.Errorf("seed %d: request %d repeats a query sent only %d requests earlier", seed, i, gap)
				}
			} else if counted {
				misses[q]++
			}
			lru = append(lru, q)
			if len(lru) > cacheSize {
				lru = lru[1:]
			}
			lastSent[q] = i
		}
		if hits != 2*len(sched)/4 {
			t.Errorf("seed %d: %d of %d requests hit the cache, want a quarter", seed, hits, 2*len(sched))
		}
		for q, n := range misses {
			if n != 2 {
				t.Errorf("seed %d: query %d was mined %d times in two cycles, want twice", seed, q, n)
			}
		}
	}
}

func TestLibraryWorkloadsCycleTheirDatasets(t *testing.T) {
	// One expression and sigma per library workload — a mix of two job sizes
	// puts the median between two modes, where it jumps from run to run — over
	// every dataset in turn.
	for _, name := range []string{"dseq-loose", "dcand-loose", "cluster-stream"} {
		w := workloadByName(name)
		_, queries := w.scaled(1)
		sched := w.schedule(len(queries), 7)
		if len(queries) != w.Datasets || len(sched) != w.Datasets {
			t.Fatalf("%s: %d queries, cycle of %d, want one per dataset (%d)", name, len(queries), len(sched), w.Datasets)
		}
		for i, q := range sched {
			if q != i || queries[q].DB != i {
				t.Errorf("%s: job %d of the cycle runs query %d on dataset %d", name, i, q, queries[q].DB)
			}
		}
	}
	// The two loose workloads differ in the algorithm and in how many of the
	// seed's draws they mine; setup draws dataset i from the same generator
	// seed for both.
	a, b := workloadByName("dseq-loose"), workloadByName("dcand-loose")
	if a.Size != b.Size || b.Datasets > a.Datasets || !reflect.DeepEqual(a.Exprs, b.Exprs) || !reflect.DeepEqual(a.Sigmas, b.Sigmas) {
		t.Error("dcand-loose must mine datasets that dseq-loose mines too, with the same expression and sigma")
	}
}
