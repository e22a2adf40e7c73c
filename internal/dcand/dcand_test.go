package dcand_test

import (
	"math/rand"
	"reflect"
	"testing"

	"seqmine/internal/datagen"
	"seqmine/internal/dcand"
	"seqmine/internal/dict"
	"seqmine/internal/fst"
	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
	"seqmine/internal/paperex"
)

// mine runs D-CAND alone in the process and fails the test on error.
func mine(t testing.TB, f *fst.FST, db [][]dict.ItemID, sigma int64, opts dcand.Options, cfg mapreduce.Config) ([]miner.Pattern, mapreduce.Metrics) {
	t.Helper()
	patterns, metrics, err := dcand.Mine(f, db, sigma, opts, cfg, nil)
	if err != nil {
		t.Fatalf("dcand.Mine: %v", err)
	}
	return patterns, metrics
}

func TestDCandRunningExample(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	db := paperex.DB(d)
	got, metrics := mine(t, f, db, paperex.Sigma, dcand.DefaultOptions(), mapreduce.Config{Workers: 2})
	if m := miner.PatternsToMap(d, got); !reflect.DeepEqual(m, paperex.ExpectedFrequent()) {
		t.Errorf("D-CAND = %v, want %v", m, paperex.ExpectedFrequent())
	}
	// Partitions a1 and c receive NFAs (same item-based partitioning as
	// D-SEQ, Fig. 3).
	if metrics.Partitions != 2 {
		t.Errorf("Partitions = %d, want 2", metrics.Partitions)
	}
	if metrics.MapOutputRecords != 4 {
		t.Errorf("MapOutputRecords = %d, want 4 NFAs", metrics.MapOutputRecords)
	}
}

func TestDCandAggregationReducesShuffle(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	// Many identical sequences produce identical NFAs which the combiner
	// aggregates into a single weighted NFA.
	var db [][]dict.ItemID
	t5, _ := d.EncodeSequence([]string{"a1", "a1", "b"})
	for i := 0; i < 50; i++ {
		db = append(db, t5)
	}
	cfg := mapreduce.Config{Workers: 1}
	withAgg := dcand.DefaultOptions()
	noAgg := dcand.Options{Minimize: true, Aggregate: false}
	res1, m1 := mine(t, f, db, 2, withAgg, cfg)
	res2, m2 := mine(t, f, db, 2, noAgg, cfg)
	if !reflect.DeepEqual(miner.PatternsToMap(d, res1), miner.PatternsToMap(d, res2)) {
		t.Fatalf("aggregation changed results: %v vs %v", res1, res2)
	}
	if m1.ShuffleRecords != 1 {
		t.Errorf("with aggregation: ShuffleRecords = %d, want 1", m1.ShuffleRecords)
	}
	if m2.ShuffleRecords != 50 {
		t.Errorf("without aggregation: ShuffleRecords = %d, want 50", m2.ShuffleRecords)
	}
	if m1.ShuffleBytes >= m2.ShuffleBytes {
		t.Errorf("aggregation should reduce shuffle bytes: %d vs %d", m1.ShuffleBytes, m2.ShuffleBytes)
	}
	if got := miner.PatternsToMap(d, res1); got["a1 a1 b"] != 50 {
		t.Errorf("aggregated counting wrong: %v", got)
	}
}

func TestDCandMinimizeReducesShuffle(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	// Many copies of T1: its pivot-c NFA is the Fig. 7 automaton, where
	// suffix sharing pays off (13/12 trie vs 7/10 minimized).
	t1, _ := d.EncodeSequence([]string{"a1", "c", "d", "c", "b"})
	var db [][]dict.ItemID
	for i := 0; i < 20; i++ {
		db = append(db, t1)
	}
	cfg := mapreduce.Config{Workers: 1}
	res1, m1 := mine(t, f, db, paperex.Sigma, dcand.Options{Minimize: true, Aggregate: false}, cfg)
	res2, m2 := mine(t, f, db, paperex.Sigma, dcand.Options{Minimize: false, Aggregate: false}, cfg)
	if !reflect.DeepEqual(miner.PatternsToMap(d, res1), miner.PatternsToMap(d, res2)) {
		t.Fatalf("minimization changed results")
	}
	if m1.ShuffleBytes >= m2.ShuffleBytes {
		t.Errorf("minimization should reduce shuffle bytes: %d vs %d", m1.ShuffleBytes, m2.ShuffleBytes)
	}
}

func TestDCandOptionCombinations(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	db := paperex.DB(d)
	want := paperex.ExpectedFrequent()
	for _, minimize := range []bool{false, true} {
		for _, agg := range []bool{false, true} {
			opts := dcand.Options{Minimize: minimize, Aggregate: agg}
			got, _ := mine(t, f, db, paperex.Sigma, opts, mapreduce.Config{Workers: 3})
			if m := miner.PatternsToMap(d, got); !reflect.DeepEqual(m, want) {
				t.Errorf("options %+v: %v, want %v", opts, m, want)
			}
		}
	}
}

// TestDCandMatchesSequential: D-CAND must produce exactly the sequential
// DESQ-DFS result on random databases.
func TestDCandMatchesSequential(t *testing.T) {
	d := paperex.Dict()
	patterns := []string{
		paperex.PatternExpression,
		"[.*(.)]{1,3}.*",
		".*(A^)[.{0,1}(.^)]{1,2}.*",
		".*(d) .* (b).*",
	}
	rng := rand.New(rand.NewSource(37))
	for _, pat := range patterns {
		f := fst.MustCompile(pat, d)
		for trial := 0; trial < 3; trial++ {
			db := make([][]dict.ItemID, 25)
			for i := range db {
				n := rng.Intn(7) + 1
				seq := make([]dict.ItemID, n)
				for j := range seq {
					seq[j] = dict.ItemID(rng.Intn(d.Size()) + 1)
				}
				db[i] = seq
			}
			for _, sigma := range []int64{1, 2, 4} {
				want := miner.PatternsToMap(d, miner.MineDFS(f, miner.Weighted(db), sigma, miner.DFSOptions{}))
				for _, workers := range []int{1, 4} {
					got, _ := mine(t, f, db, sigma, dcand.DefaultOptions(),
						mapreduce.Config{Workers: workers})
					if m := miner.PatternsToMap(d, got); !reflect.DeepEqual(m, want) {
						t.Fatalf("pattern %q sigma %d workers %d: D-CAND %v != sequential %v",
							pat, sigma, workers, m, want)
					}
				}
			}
		}
	}
}

func TestDCandEmptyDatabase(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	got, metrics := mine(t, f, nil, 1, dcand.DefaultOptions(), mapreduce.Config{})
	if len(got) != 0 || metrics.ShuffleRecords != 0 {
		t.Errorf("empty database: got %v, metrics %+v", got, metrics)
	}
}

// TestDCandSpillEquivalence mines a dataset whose shuffle footprint exceeds
// the spill threshold by well over 10x and asserts the spilling run produces
// byte-identical patterns to the in-memory run.
func TestDCandSpillEquivalence(t *testing.T) {
	db, err := datagen.NYT(datagen.NYTConfig{NumSentences: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	f := fst.MustCompile("[.*(.)]{1,3}.*", db.Dict)
	const sigma = 30
	cfg := mapreduce.Config{Workers: 2}

	want, wantMetrics := mine(t, f, db.Sequences, sigma, dcand.DefaultOptions(), cfg)
	if len(want) == 0 {
		t.Fatal("reference run found no patterns; the equivalence test is vacuous")
	}

	const threshold = 1024
	cfg.Shuffle = mapreduce.ShuffleConfig{SpillThreshold: threshold, SpillTmpDir: t.TempDir()}
	got, metrics, err := dcand.Mine(f, db.Sequences, sigma, dcand.DefaultOptions(), cfg, nil)
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}

	if !reflect.DeepEqual(got, want) {
		t.Errorf("spilling run differs: %d patterns vs %d", len(got), len(want))
	}
	if metrics.SpilledBytes == 0 || metrics.SpillCount == 0 {
		t.Fatalf("expected spilling at threshold %d: %+v", threshold, metrics)
	}
	if metrics.ShuffleBytes < 10*threshold {
		t.Fatalf("shuffle footprint %d bytes does not exceed threshold %d by 10x; grow the dataset", metrics.ShuffleBytes, threshold)
	}
	if metrics.Partitions != wantMetrics.Partitions {
		t.Errorf("partitions: got %d want %d", metrics.Partitions, wantMetrics.Partitions)
	}
}

// TestDCandStreamingEquivalence asserts the streaming pipelined shuffle (tiny
// send buffers, with and without spill) produces byte-identical
// patterns to the barrier run.
func TestDCandStreamingEquivalence(t *testing.T) {
	db, err := datagen.NYT(datagen.NYTConfig{NumSentences: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	f := fst.MustCompile("[.*(.)]{1,3}.*", db.Dict)
	const sigma = 30
	cfg := mapreduce.Config{Workers: 2}
	want, _ := mine(t, f, db.Sequences, sigma, dcand.DefaultOptions(), cfg)
	if len(want) == 0 {
		t.Fatal("reference run found no patterns; the equivalence test is vacuous")
	}

	cases := map[string]mapreduce.ShuffleConfig{
		"streaming":       {SendBufferBytes: 512},
		"streaming+spill": {SendBufferBytes: 512, SpillThreshold: 1024},
	}
	for name, sc := range cases {
		sc.SpillTmpDir = t.TempDir()
		cfg.Shuffle = sc
		got, metrics, err := dcand.Mine(f, db.Sequences, sigma, dcand.DefaultOptions(), cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: streaming run differs: %d patterns vs %d", name, len(got), len(want))
		}
		if metrics.StreamedBatches == 0 {
			t.Errorf("%s: expected streamed batches, got %+v", name, metrics)
		}
	}
}
