package dseq_test

import (
	"math/rand"
	"reflect"
	"testing"

	"seqmine/internal/datagen"
	"seqmine/internal/dict"
	"seqmine/internal/dseq"
	"seqmine/internal/fst"
	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
	"seqmine/internal/paperex"
)

// mine runs D-SEQ alone in the process and fails the test on error.
func mine(t testing.TB, f *fst.FST, db [][]dict.ItemID, sigma int64, opts dseq.Options, cfg mapreduce.Config) ([]miner.Pattern, mapreduce.Metrics) {
	t.Helper()
	patterns, metrics, err := dseq.Mine(f, db, sigma, opts, cfg, nil)
	if err != nil {
		t.Fatalf("dseq.Mine: %v", err)
	}
	return patterns, metrics
}

func TestDSeqRunningExample(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	db := paperex.DB(d)
	got, metrics := mine(t, f, db, paperex.Sigma, dseq.DefaultOptions(), mapreduce.Config{Workers: 2})
	if m := miner.PatternsToMap(d, got); !reflect.DeepEqual(m, paperex.ExpectedFrequent()) {
		t.Errorf("D-SEQ = %v, want %v", m, paperex.ExpectedFrequent())
	}
	// T1 is relevant for partitions a1 and c; T2 and T5 for a1; T3 and T4 for
	// none. Without the combiner that is 4 shuffled sequences over 2
	// partitions.
	if metrics.Partitions != 2 {
		t.Errorf("Partitions = %d, want 2", metrics.Partitions)
	}
	if metrics.MapOutputRecords != 4 {
		t.Errorf("MapOutputRecords = %d, want 4", metrics.MapOutputRecords)
	}
}

func TestDSeqRewriteReducesShuffle(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	db := paperex.DB(d)
	cfg := mapreduce.Config{Workers: 1}
	withRewrite := dseq.DefaultOptions()
	withRewrite.Aggregate = false
	noRewrite := withRewrite
	noRewrite.Rewrite = false
	_, m1 := mine(t, f, db, paperex.Sigma, withRewrite, cfg)
	_, m2 := mine(t, f, db, paperex.Sigma, noRewrite, cfg)
	// Rewriting trims the two leading "e e" items of T2 for partition a1.
	if m1.ShuffleBytes >= m2.ShuffleBytes {
		t.Errorf("rewriting should reduce shuffle size: %d vs %d", m1.ShuffleBytes, m2.ShuffleBytes)
	}
}

// TestDSeqRewriteKeepsTailFinalsCannotAbsorb: in "(A) B .*|(A) (B)" the final
// state after (B) consumes nothing, so cutting "A B C" after its last relevant
// position B would hand partition A the candidate "A B", which "A B C" does
// not have. D-SEQ must agree with the sequential miners.
func TestDSeqRewriteKeepsTailFinalsCannotAbsorb(t *testing.T) {
	b := dict.NewBuilder()
	for _, item := range []string{"A", "B", "C"} {
		b.AddItem(item)
	}
	raw := [][]string{{"A", "B", "C"}, {"A", "B", "C"}, {"A", "B", "C"}, {"B"}, {"B"}, {"B"}}
	for _, s := range raw {
		b.AddSequence(s)
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	db := make([][]dict.ItemID, len(raw))
	for i, s := range raw {
		if db[i], err = d.EncodeSequence(s); err != nil {
			t.Fatal(err)
		}
	}
	f := fst.MustCompile("(A) B .*|(A) (B)", d)
	if f.FinalsAbsorb() {
		t.Fatal("the final state after (B) has no transition; FinalsAbsorb must be false")
	}
	want := map[string]int64{"A": 3}
	if got := miner.PatternsToMap(d, miner.MineDFS(f, miner.Weighted(db), 2, miner.DFSOptions{})); !reflect.DeepEqual(got, want) {
		t.Fatalf("MineDFS = %v, want %v", got, want)
	}
	for _, rewrite := range []bool{true, false} {
		opts := dseq.DefaultOptions()
		opts.Rewrite = rewrite
		got, _ := mine(t, f, db, 2, opts, mapreduce.Config{Workers: 2})
		if m := miner.PatternsToMap(d, got); !reflect.DeepEqual(m, want) {
			t.Errorf("rewrite %v: D-SEQ = %v, want %v", rewrite, m, want)
		}
	}
}

func TestDSeqOptionCombinations(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	db := paperex.DB(d)
	cfg := mapreduce.Config{Workers: 3}
	want := paperex.ExpectedFrequent()
	for _, rewrite := range []bool{false, true} {
		for _, early := range []bool{false, true} {
			for _, agg := range []bool{false, true} {
				opts := dseq.Options{Rewrite: rewrite, EarlyStopping: early, Aggregate: agg}
				got, _ := mine(t, f, db, paperex.Sigma, opts, cfg)
				if m := miner.PatternsToMap(d, got); !reflect.DeepEqual(m, want) {
					t.Errorf("options %+v: %v, want %v", opts, m, want)
				}
			}
		}
	}
}

// TestDSeqMatchesSequential is the central integration property: D-SEQ must
// produce exactly the sequential DESQ-DFS result on random databases, for
// several constraints, thresholds and worker counts.
func TestDSeqMatchesSequential(t *testing.T) {
	d := paperex.Dict()
	patterns := []string{
		paperex.PatternExpression,
		"[.*(.)]{1,3}.*",
		".*(A^)[.{0,1}(.^)]{1,2}.*",
		".*(d) .* (b).*",
	}
	rng := rand.New(rand.NewSource(31))
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
					got, _ := mine(t, f, db, sigma, dseq.DefaultOptions(),
						mapreduce.Config{Workers: workers})
					if m := miner.PatternsToMap(d, got); !reflect.DeepEqual(m, want) {
						t.Fatalf("pattern %q sigma %d workers %d: D-SEQ %v != sequential %v",
							pat, sigma, workers, m, want)
					}
				}
				// Ablation variants must not change the result either.
				minimal := dseq.Options{Rewrite: false, EarlyStopping: false, Aggregate: false}
				got, _ := mine(t, f, db, sigma, minimal, mapreduce.Config{Workers: 2})
				if m := miner.PatternsToMap(d, got); !reflect.DeepEqual(m, want) {
					t.Fatalf("pattern %q sigma %d minimal options: %v != %v", pat, sigma, m, want)
				}
			}
		}
	}
}

func TestDSeqEmptyDatabase(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	got, metrics := mine(t, f, nil, 1, dseq.DefaultOptions(), mapreduce.Config{})
	if len(got) != 0 || metrics.ShuffleRecords != 0 {
		t.Errorf("empty database: got %v, metrics %+v", got, metrics)
	}
}

// TestDSeqSpillEquivalence mines a dataset whose shuffle footprint exceeds
// the spill threshold by well over 10x and asserts the spilling run produces
// byte-identical patterns to the in-memory run.
func TestDSeqSpillEquivalence(t *testing.T) {
	db, err := datagen.NYT(datagen.NYTConfig{NumSentences: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	f := fst.MustCompile("[.*(.)]{1,3}.*", db.Dict)
	const sigma = 30
	cfg := mapreduce.Config{Workers: 2}

	want, wantMetrics := mine(t, f, db.Sequences, sigma, dseq.DefaultOptions(), cfg)
	if len(want) == 0 {
		t.Fatal("reference run found no patterns; the equivalence test is vacuous")
	}

	const threshold = 1024
	cfg.Shuffle = mapreduce.ShuffleConfig{SpillThreshold: threshold, SpillTmpDir: t.TempDir()}
	got, metrics, err := dseq.Mine(f, db.Sequences, sigma, dseq.DefaultOptions(), cfg, nil)
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

// TestDSeqStreamingEquivalence asserts the streaming pipelined shuffle (tiny
// send buffers, with and without spill) produces byte-identical
// patterns to the barrier run.
func TestDSeqStreamingEquivalence(t *testing.T) {
	db, err := datagen.NYT(datagen.NYTConfig{NumSentences: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	f := fst.MustCompile("[.*(.)]{1,3}.*", db.Dict)
	const sigma = 30
	cfg := mapreduce.Config{Workers: 2}
	want, _ := mine(t, f, db.Sequences, sigma, dseq.DefaultOptions(), cfg)
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
		got, metrics, err := dseq.Mine(f, db.Sequences, sigma, dseq.DefaultOptions(), cfg, nil)
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
