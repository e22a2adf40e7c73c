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
// are reported and gated: the flattened hot path must stay arena-backed, so a
// change that reintroduces per-snapshot or per-state-set heap traffic shows
// up as an allocs/op regression even when time happens to absorb it.
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
