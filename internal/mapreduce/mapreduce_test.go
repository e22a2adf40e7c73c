package mapreduce_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"seqmine/internal/mapreduce"
)

// wordCountJob is the canonical MapReduce example used to exercise the
// engine.
func wordCountJob() mapreduce.Job[string, string, int64, [2]string] {
	return mapreduce.Job[string, string, int64, [2]string]{
		Map: func(line string, emit func(string, int64)) {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
		},
		Combine: func(_ string, vs []int64) []int64 {
			var s int64
			for _, v := range vs {
				s += v
			}
			return []int64{s}
		},
		Reduce: func(k string, vs []int64, emit func([2]string)) {
			var s int64
			for _, v := range vs {
				s += v
			}
			emit([2]string{k, fmt.Sprint(s)})
		},
		Hash:   mapreduce.HashString,
		SizeOf: func(k string, _ int64) int { return len(k) + 8 },
	}
}

// runAlone runs the job as the only peer of the process, failing the test on
// error.
func runAlone[I any, K comparable, V any, O any](t *testing.T, inputs []I, cfg mapreduce.Config, job mapreduce.Job[I, K, V, O]) ([]O, mapreduce.Metrics) {
	t.Helper()
	out, metrics, err := mapreduce.Run(inputs, cfg, job, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out, metrics
}

func TestWordCount(t *testing.T) {
	lines := []string{
		"the quick brown fox",
		"the lazy dog",
		"the quick dog",
	}
	for _, workers := range []int{1, 2, 4, 8} {
		out, metrics := runAlone(t, lines, mapreduce.Config{MapWorkers: workers, ReduceWorkers: workers}, wordCountJob())
		got := map[string]string{}
		for _, kv := range out {
			got[kv[0]] = kv[1]
		}
		want := map[string]string{"the": "3", "quick": "2", "brown": "1", "fox": "1", "lazy": "1", "dog": "2"}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: word count = %v, want %v", workers, got, want)
		}
		if metrics.MapOutputRecords != 10 {
			t.Errorf("workers=%d: MapOutputRecords = %d, want 10", workers, metrics.MapOutputRecords)
		}
		if metrics.Partitions != 6 {
			t.Errorf("workers=%d: Partitions = %d, want 6", workers, metrics.Partitions)
		}
		// The combiner merges per-worker duplicates, so shuffle records can
		// never exceed map output records and must cover every partition.
		if metrics.ShuffleRecords > metrics.MapOutputRecords || metrics.ShuffleRecords < metrics.Partitions {
			t.Errorf("workers=%d: implausible shuffle records %d", workers, metrics.ShuffleRecords)
		}
		if metrics.ShuffleBytes <= 0 || metrics.Total() <= 0 {
			t.Errorf("workers=%d: metrics not populated: %+v", workers, metrics)
		}
	}
}

func TestCombinerReducesShuffle(t *testing.T) {
	// 100 identical lines: with one map worker the combiner must collapse the
	// emissions of each word to a single shuffle record.
	lines := make([]string, 100)
	for i := range lines {
		lines[i] = "alpha beta"
	}
	cfg := mapreduce.Config{MapWorkers: 1, ReduceWorkers: 1}
	_, with := runAlone(t, lines, cfg, wordCountJob())
	job := wordCountJob()
	job.Combine = nil
	_, without := runAlone(t, lines, cfg, job)
	if with.ShuffleRecords != 2 {
		t.Errorf("with combiner: ShuffleRecords = %d, want 2", with.ShuffleRecords)
	}
	if without.ShuffleRecords != 200 {
		t.Errorf("without combiner: ShuffleRecords = %d, want 200", without.ShuffleRecords)
	}
	if with.ShuffleBytes >= without.ShuffleBytes {
		t.Errorf("combiner should reduce shuffle bytes: %d vs %d", with.ShuffleBytes, without.ShuffleBytes)
	}
}

func TestNilHashAndSize(t *testing.T) {
	job := wordCountJob()
	job.Hash = nil
	job.SizeOf = nil
	out, metrics := runAlone(t, []string{"a b a"}, mapreduce.Config{MapWorkers: 2, ReduceWorkers: 4}, job)
	if len(out) != 2 {
		t.Errorf("expected 2 outputs, got %v", out)
	}
	// With SizeOf nil, every shuffled record counts one byte.
	if metrics.ShuffleBytes != metrics.ShuffleRecords {
		t.Errorf("default SizeOf should count one byte per record: %+v", metrics)
	}
}

func TestEmptyInput(t *testing.T) {
	out, metrics := runAlone(t, nil, mapreduce.Config{}, wordCountJob())
	if len(out) != 0 || metrics.ShuffleRecords != 0 || metrics.Partitions != 0 {
		t.Errorf("empty input should produce nothing: %v %+v", out, metrics)
	}
}

// TestParallelMatchesSequential is a property test: for random inputs, the
// engine's result must be independent of the worker configuration.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	words := []string{"a", "b", "c", "d", "e", "f", "g"}
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(50)
		lines := make([]string, n)
		for i := range lines {
			k := rng.Intn(5) + 1
			parts := make([]string, k)
			for j := range parts {
				parts[j] = words[rng.Intn(len(words))]
			}
			lines[i] = strings.Join(parts, " ")
		}
		ref, _ := runAlone(t, lines, mapreduce.Config{MapWorkers: 1, ReduceWorkers: 1}, wordCountJob())
		refSorted := renderKV(ref)
		for _, workers := range []int{2, 3, 8} {
			got, _ := runAlone(t, lines, mapreduce.Config{MapWorkers: workers, ReduceWorkers: workers}, wordCountJob())
			if !reflect.DeepEqual(renderKV(got), refSorted) {
				t.Fatalf("trial %d workers %d: %v != %v", trial, workers, renderKV(got), refSorted)
			}
		}
	}
}

func renderKV(kvs [][2]string) []string {
	out := make([]string, 0, len(kvs))
	for _, kv := range kvs {
		out = append(out, kv[0]+"="+kv[1])
	}
	sort.Strings(out)
	return out
}

func TestSortSlice(t *testing.T) {
	s := []int{3, 1, 2}
	mapreduce.SortSlice(s, func(a, b int) bool { return a < b })
	if !reflect.DeepEqual(s, []int{1, 2, 3}) {
		t.Errorf("SortSlice = %v", s)
	}
}

func TestHashFunctions(t *testing.T) {
	if mapreduce.HashUint64(1) == mapreduce.HashUint64(2) {
		t.Error("HashUint64 collision on small integers")
	}
	if mapreduce.HashString("abc") == mapreduce.HashString("abd") {
		t.Error("HashString collision on similar strings")
	}
	// Hash values must be stable (used for partitioning).
	if mapreduce.HashString("pivot") != mapreduce.HashString("pivot") {
		t.Error("HashString not deterministic")
	}
}
