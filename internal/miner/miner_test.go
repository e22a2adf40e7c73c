package miner_test

import (
	"context"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"seqmine/internal/dict"
	"seqmine/internal/fst"
	"seqmine/internal/miner"
	"seqmine/internal/paperex"
)

func runningExample(t *testing.T) (*dict.Dictionary, *fst.FST, [][]dict.ItemID) {
	t.Helper()
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	return d, f, paperex.DB(d)
}

func TestMineCountRunningExample(t *testing.T) {
	d, f, db := runningExample(t)
	got := miner.PatternsToMap(d, miner.MineCount(context.Background(), f, miner.Weighted(db), paperex.Sigma, 1))
	if !reflect.DeepEqual(got, paperex.ExpectedFrequent()) {
		t.Errorf("MineCount = %v, want %v", got, paperex.ExpectedFrequent())
	}
}

func TestMineDFSRunningExample(t *testing.T) {
	d, f, db := runningExample(t)
	got := miner.PatternsToMap(d, miner.MineDFS(f, miner.Weighted(db), paperex.Sigma, miner.DFSOptions{}))
	if !reflect.DeepEqual(got, paperex.ExpectedFrequent()) {
		t.Errorf("MineDFS = %v, want %v", got, paperex.ExpectedFrequent())
	}
}

func TestMineDFSSigmaOne(t *testing.T) {
	// With sigma=1 every candidate of every sequence is frequent; DESQ-DFS and
	// DESQ-COUNT must agree exactly.
	d, f, db := runningExample(t)
	want := miner.PatternsToMap(d, miner.MineCount(context.Background(), f, miner.Weighted(db), 1, 1))
	got := miner.PatternsToMap(d, miner.MineDFS(f, miner.Weighted(db), 1, miner.DFSOptions{}))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sigma=1 mismatch:\n got %v\nwant %v", got, want)
	}
	if len(got) == 0 {
		t.Fatal("expected a non-empty result at sigma=1")
	}
}

// TestMineDFSPivotRestricted mines partition P_a1 of the running example
// (Fig. 6): the sequences relevant for pivot a1 are T1, T2 and T5, and the
// frequent pivot sequences are exactly the three patterns of the paper.
func TestMineDFSPivotRestricted(t *testing.T) {
	d, f, db := runningExample(t)
	a1 := d.MustFid("a1")
	part := [][]dict.ItemID{db[0], db[1], db[4]} // T1, T2, T5
	for _, early := range []bool{false, true} {
		got := miner.PatternsToMap(d, miner.MineDFS(f, miner.Weighted(part), paperex.Sigma,
			miner.DFSOptions{Pivot: a1, EarlyStopping: early}))
		if !reflect.DeepEqual(got, paperex.ExpectedFrequent()) {
			t.Errorf("early=%v: partition P_a1 = %v, want %v", early, got, paperex.ExpectedFrequent())
		}
	}
}

// TestMineDFSPivotPartitionC: partition P_c receives only T1 (Fig. 3); no
// pivot-c sequence is frequent at sigma=2.
func TestMineDFSPivotPartitionC(t *testing.T) {
	d, f, db := runningExample(t)
	c := d.MustFid("c")
	got := miner.MineDFS(f, miner.Weighted([][]dict.ItemID{db[0]}), paperex.Sigma, miner.DFSOptions{Pivot: c})
	if len(got) != 0 {
		t.Errorf("partition P_c should produce no frequent sequences, got %v", miner.PatternsToMap(d, got))
	}
	// At sigma=1 the pivot-c partition outputs exactly the pivot-c candidates
	// of T1.
	got1 := miner.PatternsToMap(d, miner.MineDFS(f, miner.Weighted([][]dict.ItemID{db[0]}), 1, miner.DFSOptions{Pivot: c}))
	want := map[string]int64{
		"a1 c d c b": 1, "a1 c d b": 1, "a1 c b": 1, "a1 d c b": 1, "a1 c c b": 1,
	}
	if !reflect.DeepEqual(got1, want) {
		t.Errorf("pivot-c candidates = %v, want %v", got1, want)
	}
}

func TestMineDFSWeighted(t *testing.T) {
	d, f, db := runningExample(t)
	// Duplicate T5 with weight 3: a1 a1 b, a1 A b, a1 b all gain +2 support.
	weighted := miner.Weighted(db)
	weighted[4].Weight = 3
	got := miner.PatternsToMap(d, miner.MineDFS(f, weighted, paperex.Sigma, miner.DFSOptions{}))
	want := map[string]int64{"a1 a1 b": 4, "a1 A b": 4, "a1 b": 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("weighted MineDFS = %v, want %v", got, want)
	}
	gotCount := miner.PatternsToMap(d, miner.MineCount(context.Background(), f, weighted, paperex.Sigma, 1))
	if !reflect.DeepEqual(gotCount, want) {
		t.Errorf("weighted MineCount = %v, want %v", gotCount, want)
	}
}

func TestMineDFSEmptyAndNoMatch(t *testing.T) {
	d, f, _ := runningExample(t)
	if got := miner.MineDFS(f, nil, 1, miner.DFSOptions{}); len(got) != 0 {
		t.Errorf("empty database should mine nothing, got %v", got)
	}
	// T3 has no accepting run; a database of only T3 yields nothing.
	t3, _ := d.EncodeSequence([]string{"c", "d", "c", "b"})
	if got := miner.MineDFS(f, miner.Weighted([][]dict.ItemID{t3}), 1, miner.DFSOptions{}); len(got) != 0 {
		t.Errorf("database without accepting runs should mine nothing, got %v", got)
	}
}

func TestSortPatternsAndHelpers(t *testing.T) {
	d := paperex.Dict()
	ps := []miner.Pattern{
		{Items: []dict.ItemID{d.MustFid("a1"), d.MustFid("b")}, Freq: 3},
		{Items: []dict.ItemID{d.MustFid("b")}, Freq: 5},
		{Items: []dict.ItemID{d.MustFid("A")}, Freq: 3},
	}
	miner.SortPatterns(ps)
	if ps[0].Freq != 5 {
		t.Errorf("highest frequency first, got %v", ps)
	}
	if ps[1].Items[0] != d.MustFid("A") {
		t.Errorf("ties broken by item order, got %v", ps)
	}
	m := miner.PatternsToMap(d, ps)
	if m["b"] != 5 || m["a1 b"] != 3 {
		t.Errorf("PatternsToMap = %v", m)
	}
}

// randomDB builds a random database over the running-example vocabulary.
func randomDB(rng *rand.Rand, d *dict.Dictionary, numSeqs, maxLen int) [][]dict.ItemID {
	db := make([][]dict.ItemID, numSeqs)
	for i := range db {
		n := rng.Intn(maxLen) + 1
		seq := make([]dict.ItemID, n)
		for j := range seq {
			seq[j] = dict.ItemID(rng.Intn(d.Size()) + 1)
		}
		db[i] = seq
	}
	return db
}

// TestMineDFSMatchesMineCountRandom is the central equivalence property:
// DESQ-DFS and DESQ-COUNT agree on random databases for several constraints
// and thresholds.
func TestMineDFSMatchesMineCountRandom(t *testing.T) {
	d := paperex.Dict()
	patterns := []string{
		paperex.PatternExpression,
		"[.*(.)]{1,3}.*",
		".*(A^)[.{0,1}(.)]{1,2}.*",
		".*(d) .* (b).*",
		".*[(A^=)|(c)] .* (b).*",
	}
	rng := rand.New(rand.NewSource(42))
	for _, pat := range patterns {
		f := fst.MustCompile(pat, d)
		for trial := 0; trial < 6; trial++ {
			db := randomDB(rng, d, 12, 6)
			for _, sigma := range []int64{1, 2, 3} {
				want := miner.PatternsToMap(d, miner.MineCount(context.Background(), f, miner.Weighted(db), sigma, 1))
				got := miner.PatternsToMap(d, miner.MineDFS(f, miner.Weighted(db), sigma, miner.DFSOptions{}))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("pattern %q sigma %d: DFS %v != COUNT %v (db=%v)", pat, sigma, got, want, db)
				}
			}
		}
	}
}

// TestPivotPartitionsCoverSequentialResult: mining each pivot partition of the
// full database with the pivot restriction and merging the results must equal
// the unrestricted sequential result (item-based partitioning correctness).
func TestPivotPartitionsCoverSequentialResult(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		db := randomDB(rng, d, 15, 6)
		for _, sigma := range []int64{1, 2} {
			want := miner.PatternsToMap(d, miner.MineDFS(f, miner.Weighted(db), sigma, miner.DFSOptions{}))
			got := map[string]int64{}
			for pivot := dict.ItemID(1); int(pivot) <= d.Size(); pivot++ {
				for _, p := range miner.MineDFS(f, miner.Weighted(db), sigma, miner.DFSOptions{Pivot: pivot}) {
					if dict.PivotOf(p.Items) != pivot {
						continue // non-pivot sequences are handled by their own partition
					}
					got[d.DecodeString(p.Items)] = p.Freq
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d sigma %d: merged pivot partitions %v != sequential %v", trial, sigma, got, want)
			}
		}
	}
}

// TestEarlyStoppingPreservesResults: the early-stopping heuristic must not
// change the mining output of any pivot partition.
func TestEarlyStoppingPreservesResults(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		db := randomDB(rng, d, 15, 6)
		for pivot := dict.ItemID(1); int(pivot) <= d.Size(); pivot++ {
			plain := miner.PatternsToMap(d, miner.MineDFS(f, miner.Weighted(db), 2, miner.DFSOptions{Pivot: pivot}))
			early := miner.PatternsToMap(d, miner.MineDFS(f, miner.Weighted(db), 2, miner.DFSOptions{Pivot: pivot, EarlyStopping: true}))
			if !reflect.DeepEqual(plain, early) {
				t.Fatalf("pivot %s: early stopping changed results: %v vs %v", d.Name(pivot), plain, early)
			}
		}
	}
}

// TestMineDFSPartitionAllocations pins the set-up cost of mining one pivot
// partition, the call D-SEQ's reducer makes per pivot: with the per-sequence
// matrices carved from pooled scratch, a warm call allocates for the patterns
// it reports (one item slice each, plus the result slice's growth and the
// sort) and nothing per input sequence.
func TestMineDFSPartitionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	d, f, _ := runningExample(t)
	db := miner.Weighted(randomDB(rand.New(rand.NewSource(3)), d, 400, 8))
	opts := miner.DFSOptions{Pivot: d.MustFid("a1"), EarlyStopping: true}
	patterns := len(miner.MineDFS(f, db, 2, opts))
	if patterns == 0 {
		t.Fatal("the partition reports no pattern; the pin is vacuous")
	}
	allocs := testing.AllocsPerRun(20, func() { miner.MineDFS(f, db, 2, opts) })
	// bits.Len: append doublings of the result slice; 6: the miner itself,
	// the sort's closure and swapper, and a pool emptied by a collection.
	if limit := float64(patterns + bits.Len(uint(patterns)) + 6); allocs > limit {
		t.Errorf("MineDFS over %d sequences: %.0f allocs per call for %d patterns, want <= %.0f",
			len(db), allocs, patterns, limit)
	}
}
