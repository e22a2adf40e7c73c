package lash_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"seqmine/internal/baseline/lash"
	"seqmine/internal/datagen"
	"seqmine/internal/dict"
	"seqmine/internal/dseq"
	"seqmine/internal/fst"
	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
	"seqmine/internal/paperex"
)

// t3Pattern is the pattern-expression formulation of the LASH constraint
// (max gap, max length, hierarchy), with explicit gap context.
func t3Pattern(gamma, lambda int) string {
	return fmt.Sprintf(".*(.^)[.{0,%d}(.^)]{1,%d}.*", gamma, lambda-1)
}

// t2Pattern is the same without hierarchy generalization.
func t2Pattern(gamma, lambda int) string {
	return fmt.Sprintf(".*(.)[.{0,%d}(.)]{1,%d}.*", gamma, lambda-1)
}

func TestLashSimpleExample(t *testing.T) {
	d := paperex.Dict()
	db := paperex.DB(d)
	c := lash.Constraint{MaxGap: 0, MaxLength: 2, MinLength: 2, Hierarchy: true}
	got := miner.PatternsToMap(d, lash.MineSequential(d, db, 2, c))
	// Consecutive pairs (gap 0, hierarchy) with support >= 2:
	// d c (T1: d@3 c@4? gap0 yes; T3: d c) -> 2, c b (T1, T3) -> 2,
	// d b (T4 only at gap 0? T4 = a2 d b: d b consecutive) plus T1? d c b: no.
	// A d from T1 (a1 c d...)? not consecutive. a1/A pairs in T5: a1 a1, a1 A,
	// A a1, A A, a1 b, A b (T5 and T2? T2 has a1 e b: not consecutive).
	want := map[string]int64{
		"d c": 2,
		"c b": 2,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("pattern %q: support %d, want %d (all: %v)", k, got[k], v, got)
		}
	}
	// No pattern may contain an infrequent item.
	for k := range got {
		if k == "" {
			t.Error("empty pattern reported")
		}
	}
}

// TestLashMatchesDSeq cross-validates the specialized miner against D-SEQ
// with the equivalent pattern expression, with and without hierarchy.
func TestLashMatchesDSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	cfg := mapreduce.Config{Workers: 2}
	for trial := 0; trial < 4; trial++ {
		d, db := paperex.RandomDatabase(rng, 25, 6)
		for _, hier := range []bool{true, false} {
			for _, gamma := range []int{0, 1} {
				lambda := 3
				pattern := t2Pattern(gamma, lambda)
				if hier {
					pattern = t3Pattern(gamma, lambda)
				}
				f := fst.MustCompile(pattern, d)
				for _, sigma := range []int64{2, 3} {
					wantPatterns, _, err := dseq.Mine(f, db, sigma, dseq.DefaultOptions(), cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					want := miner.PatternsToMap(d, wantPatterns)
					c := lash.Constraint{MaxGap: gamma, MaxLength: lambda, MinLength: 2, Hierarchy: hier}
					gotSeq := miner.PatternsToMap(d, lash.MineSequential(d, db, sigma, c))
					if !reflect.DeepEqual(gotSeq, want) {
						t.Fatalf("trial %d hier=%v gamma=%d sigma=%d: sequential LASH %v != D-SEQ %v",
							trial, hier, gamma, sigma, gotSeq, want)
					}
					gotDist, _, err := lash.Mine(d, db, sigma, c, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if m := miner.PatternsToMap(d, gotDist); !reflect.DeepEqual(m, want) {
						t.Fatalf("trial %d hier=%v gamma=%d sigma=%d: distributed LASH %v != D-SEQ %v",
							trial, hier, gamma, sigma, m, want)
					}
				}
			}
		}
	}
}

// TestLashOnAmazonData checks distributed and sequential mining agree on a
// small generated AMZN-like dataset (hierarchy of depth 3).
func TestLashOnAmazonData(t *testing.T) {
	db, err := datagen.Amazon(datagen.AmazonConfig{NumCustomers: 80, Seed: 9, Forest: true})
	if err != nil {
		t.Fatal(err)
	}
	c := lash.Constraint{MaxGap: 1, MaxLength: 3, MinLength: 2, Hierarchy: true}
	want := miner.PatternsToMap(db.Dict, lash.MineSequential(db.Dict, db.Sequences, 10, c))
	got, metrics, err := lash.Mine(db.Dict, db.Sequences, 10, c, mapreduce.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m := miner.PatternsToMap(db.Dict, got); !reflect.DeepEqual(m, want) {
		t.Fatalf("distributed %v != sequential %v", m, want)
	}
	if len(want) == 0 {
		t.Fatal("expected some frequent patterns on the AMZN-like data")
	}
	if metrics.ShuffleBytes == 0 || metrics.Partitions == 0 {
		t.Errorf("metrics not populated: %+v", metrics)
	}
}

func TestLashRewriteDropsIrrelevantItems(t *testing.T) {
	// The rewriting must not change results but must reduce communication.
	d := paperex.Dict()
	db := paperex.DB(d)
	c := lash.Constraint{MaxGap: 1, MaxLength: 3, MinLength: 2, Hierarchy: true}
	_, metrics, err := lash.Mine(d, db, 2, c, mapreduce.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var rawBytes int64
	for _, T := range db {
		rawBytes += int64(2*len(T) + 2)
	}
	// Every sequence is sent to several partitions, but rewriting should keep
	// the shuffled volume well below #pivots * full size.
	pivots := 0
	for fid := dict.ItemID(1); int(fid) <= d.Size(); fid++ {
		if d.IsFrequent(fid, 2) {
			pivots++
		}
	}
	if metrics.ShuffleBytes >= rawBytes*int64(pivots) {
		t.Errorf("rewriting seems ineffective: shuffle %d bytes", metrics.ShuffleBytes)
	}
}
