package miner_test

import (
	"context"
	"math/rand"
	"testing"

	"seqmine/internal/dict"
	"seqmine/internal/fst"
	"seqmine/internal/miner"
	"seqmine/internal/paperex"
)

func benchDatabase(n, maxLen int) (*dict.Dictionary, *fst.FST, []miner.WeightedSequence) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	rng := rand.New(rand.NewSource(4))
	db := make([][]dict.ItemID, n)
	for i := range db {
		l := rng.Intn(maxLen) + 1
		seq := make([]dict.ItemID, l)
		for j := range seq {
			seq[j] = dict.ItemID(rng.Intn(d.Size()) + 1)
		}
		db[i] = seq
	}
	return d, f, miner.Weighted(db)
}

// BenchmarkMineDFS measures the pattern-growth miner (DESQ-DFS). Allocations
// are reported because the flattened hot path must stay arena-backed: a change
// that reintroduces per-snapshot or per-state-set heap traffic shows up in
// allocs/op even when time happens to absorb it (the miner's allocation pins
// fail on it).
func BenchmarkMineDFS(b *testing.B) {
	_, f, db := benchDatabase(500, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miner.MineDFS(f, db, 5, miner.DFSOptions{})
	}
}

// BenchmarkMineCount measures the enumerate-and-count miner (DESQ-COUNT).
func BenchmarkMineCount(b *testing.B) {
	_, f, db := benchDatabase(500, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miner.MineCount(context.Background(), f, db, 5, 1)
	}
}

// TestMineCountAllocations pins a warm sequential MineCount on the fixture of
// BenchmarkMineCount, which reports no pattern: the table comes from the pool
// and every sequence's candidates from the pooled walk, so what is left is the
// fixed cost of the call — the table slice and the fan-out's closures.
func TestMineCountAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	_, f, db := benchDatabase(500, 10)
	ctx := context.Background()
	if n := len(miner.MineCount(ctx, f, db, 5, 1)); n != 0 {
		t.Fatalf("%d patterns at sigma 5; the fixed cost below assumes none", n)
	}
	if n := testing.AllocsPerRun(20, func() { miner.MineCount(ctx, f, db, 5, 1) }); n > 4 {
		t.Errorf("MineCount over %d sequences allocates %.0f times per call, want <= 4", len(db), n)
	}
}

// BenchmarkMineDFSPivot measures pivot-restricted local mining as used by the
// D-SEQ reduce phase, with and without early stopping.
func BenchmarkMineDFSPivot(b *testing.B) {
	d, f, db := benchDatabase(500, 10)
	pivotItem := d.MustFid("a1")
	for _, early := range []bool{false, true} {
		name := "plain"
		if early {
			name = "earlyStopping"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				miner.MineDFS(f, db, 5, miner.DFSOptions{Pivot: pivotItem, EarlyStopping: early})
			}
		})
	}
}
