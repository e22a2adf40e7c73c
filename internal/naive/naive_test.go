package naive_test

import (
	"math/rand"
	"reflect"
	"testing"

	"seqmine/internal/dict"
	"seqmine/internal/fst"
	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
	"seqmine/internal/naive"
	"seqmine/internal/paperex"
)

// mine runs the baseline alone in the process and fails the test on error.
func mine(t testing.TB, f *fst.FST, db [][]dict.ItemID, sigma int64, variant naive.Variant, cfg mapreduce.Config) ([]miner.Pattern, mapreduce.Metrics) {
	t.Helper()
	patterns, metrics, err := naive.Mine(f, db, sigma, variant, cfg)
	if err != nil {
		t.Fatalf("naive.Mine: %v", err)
	}
	return patterns, metrics
}

func TestEncodeDecodeSequence(t *testing.T) {
	cases := [][]dict.ItemID{
		nil,
		{1},
		{1, 2, 3},
		{127, 128, 300, 70000},
	}
	for _, seq := range cases {
		got := naive.DecodeSequence(naive.EncodeSequence(seq))
		if len(seq) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, seq) {
			t.Errorf("round trip of %v = %v", seq, got)
		}
	}
}

func TestNaiveRunningExample(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	db := paperex.DB(d)
	cfg := mapreduce.Config{MapWorkers: 2, ReduceWorkers: 2}
	for _, variant := range []naive.Variant{naive.Naive, naive.SemiNaive} {
		got, metrics := mine(t, f, db, paperex.Sigma, variant, cfg)
		if m := miner.PatternsToMap(d, got); !reflect.DeepEqual(m, paperex.ExpectedFrequent()) {
			t.Errorf("%v = %v, want %v", variant, m, paperex.ExpectedFrequent())
		}
		if metrics.ShuffleRecords == 0 || metrics.ShuffleBytes == 0 {
			t.Errorf("%v: metrics not populated: %+v", variant, metrics)
		}
	}
}

func TestSemiNaiveShufflesLess(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	db := paperex.DB(d)
	cfg := mapreduce.Config{MapWorkers: 1, ReduceWorkers: 1}
	_, naiveMetrics := mine(t, f, db, paperex.Sigma, naive.Naive, cfg)
	_, semiMetrics := mine(t, f, db, paperex.Sigma, naive.SemiNaive, cfg)
	// T2 and T4 generate candidates with infrequent items which SEMI-NAIVE
	// never communicates.
	if semiMetrics.MapOutputRecords >= naiveMetrics.MapOutputRecords {
		t.Errorf("SEMI-NAIVE should emit fewer candidates: %d vs %d",
			semiMetrics.MapOutputRecords, naiveMetrics.MapOutputRecords)
	}
	if semiMetrics.ShuffleBytes >= naiveMetrics.ShuffleBytes {
		t.Errorf("SEMI-NAIVE should shuffle fewer bytes: %d vs %d",
			semiMetrics.ShuffleBytes, naiveMetrics.ShuffleBytes)
	}
}

func TestVariantString(t *testing.T) {
	if naive.Naive.String() != "Naive" || naive.SemiNaive.String() != "SemiNaive" {
		t.Error("unexpected Variant names")
	}
}

// TestNaiveMatchesSequential compares both variants against the sequential
// miner on random databases whose f-list is consistent with the data (the
// standing assumption of the paper).
func TestNaiveMatchesSequential(t *testing.T) {
	patterns := []string{paperex.PatternExpression, "[.*(.)]{1,3}.*"}
	rng := rand.New(rand.NewSource(13))
	cfg := mapreduce.Config{MapWorkers: 4, ReduceWorkers: 4}
	for _, pat := range patterns {
		for trial := 0; trial < 4; trial++ {
			d, db := paperex.RandomDatabase(rng, 20, 6)
			f := fst.MustCompile(pat, d)
			for _, sigma := range []int64{1, 2, 3} {
				want := miner.PatternsToMap(d, miner.MineDFS(f, miner.Weighted(db), sigma, miner.DFSOptions{}))
				for _, variant := range []naive.Variant{naive.Naive, naive.SemiNaive} {
					got, _ := mine(t, f, db, sigma, variant, cfg)
					if m := miner.PatternsToMap(d, got); !reflect.DeepEqual(m, want) {
						t.Fatalf("%v pattern %q sigma %d: %v != %v", variant, pat, sigma, m, want)
					}
				}
			}
		}
	}
}

// TestNaiveStreamingEquivalence asserts the baselines mine identically with
// the streaming shuffle, whose bounded send buffers also cap the baselines'
// map-side combine (the candidate groups a map worker holds before the
// combiner runs — unbounded in barrier mode).
func TestNaiveStreamingEquivalence(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	db := paperex.DB(d)
	for _, variant := range []naive.Variant{naive.Naive, naive.SemiNaive} {
		want, _ := mine(t, f, db, paperex.Sigma, variant, mapreduce.Config{})
		cfg := mapreduce.Config{MapWorkers: 2, ReduceWorkers: 2,
			Shuffle: mapreduce.ShuffleConfig{SendBufferBytes: 32, SpillTmpDir: t.TempDir()}}
		got, metrics, err := naive.Mine(f, db, paperex.Sigma, variant, cfg)
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: streaming run differs from barrier run", variant)
		}
		if metrics.StreamedBatches == 0 {
			t.Errorf("%v: expected streamed batches, got %+v", variant, metrics)
		}
	}
}

// TestNaiveSpillEquivalence asserts the baselines also mine identically when
// their candidate shuffle spills to disk (exercising the string-key codec).
func TestNaiveSpillEquivalence(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	db := paperex.DB(d)
	for _, variant := range []naive.Variant{naive.Naive, naive.SemiNaive} {
		want, _ := mine(t, f, db, paperex.Sigma, variant, mapreduce.Config{})
		cfg := mapreduce.Config{MapWorkers: 2, ReduceWorkers: 2,
			Shuffle: mapreduce.ShuffleConfig{SpillThreshold: 1, SpillTmpDir: t.TempDir()}}
		got, metrics, err := naive.Mine(f, db, paperex.Sigma, variant, cfg)
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: spilling run differs from in-memory run", variant)
		}
		if metrics.SpilledBytes == 0 || metrics.SpillCount == 0 {
			t.Errorf("%v: expected spilling, got %+v", variant, metrics)
		}
	}
}
