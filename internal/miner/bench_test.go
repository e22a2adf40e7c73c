package miner_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"seqmine/internal/datagen"
	"seqmine/internal/dict"
	"seqmine/internal/experiments"
	"seqmine/internal/fst"
	"seqmine/internal/miner"
	"seqmine/internal/paperex"
	"seqmine/internal/seqdb"
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

// servedSigmas are the sigmas the serving benchmark's σ sweep asks for, on
// 30,000 NYT-like sentences.
var servedSigmas = []int64{8, 10, 12, 16, 20, 24, 32, 40, 48, 64, 80, 100}

// nytFixture is the serving benchmark's database: 30,000 NYT-like sentences
// of seed 1, generated once per test binary.
var nytFixture = sync.OnceValue(func() *seqdb.Database {
	db, err := datagen.NYT(datagen.NYTConfig{NumSentences: 30000, Seed: 1})
	if err != nil {
		panic(err)
	}
	return db
})

// servedExprs are N1–N3 of Table III, the expressions the service is
// benchmarked on.
var servedExprs = []string{experiments.N1Expr, experiments.N2Expr, experiments.N3Expr}

// amznFixture is one AMZN-F-like draw of the size the D-SEQ workloads mine:
// 2,500 customers of seed 1000, with a forest hierarchy.
var amznFixture = sync.OnceValue(func() *seqdb.Database {
	db, err := datagen.Amazon(datagen.AmazonConfig{NumCustomers: 2500, Seed: 1000, Forest: true})
	if err != nil {
		panic(err)
	}
	return db
})

// preparedCase is one row of the Prepared benchmarks: an expression over a
// database, mined at its sigmas.
type preparedCase struct {
	name   string
	db     func() *seqdb.Database
	expr   string
	sigmas []int64
}

// preparedCases are N1–N3 over the NYT-like fixture at the served sigmas, and
// a loose one, T3(1,5) at sigma 31 over the AMZN-like draw, whose item
// triples would outweigh the rest of its Prepared, which therefore keeps
// level 2.
var preparedCases = []preparedCase{
	{"N1", nytFixture, servedExprs[0], servedSigmas},
	{"N2", nytFixture, servedExprs[1], servedSigmas},
	{"N3", nytFixture, servedExprs[2], servedSigmas},
	{"T3", amznFixture, experiments.T3Expr(1, 5), []int64{31}},
}

// BenchmarkPreparedMine is the serving layer's miner: one Prepared per case,
// mined at every sigma of the case in turn on two workers per op — for N1–N3
// the work behind a warm σ sweep's mine time.
func BenchmarkPreparedMine(b *testing.B) {
	ctx := context.Background()
	for _, c := range preparedCases {
		db := c.db()
		p := miner.Prepare(ctx, fst.MustCompile(c.expr, db.Dict), db.Sequences, 2)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				for _, sigma := range c.sigmas {
					p.Mine(ctx, sigma, 2, nil)
				}
			}
		})
	}
}

// BenchmarkPrepare is the first query of an expression: Prepare of every case
// on two workers. It reports the MB the Prepared keeps.
func BenchmarkPrepare(b *testing.B) {
	ctx := context.Background()
	for _, c := range preparedCases {
		db := c.db()
		f := fst.MustCompile(c.expr, db.Dict)
		b.Run(c.name, func(b *testing.B) {
			var p *miner.Prepared
			for n := 0; n < b.N; n++ {
				p = miner.Prepare(ctx, f, db.Sequences, 2)
			}
			b.ReportMetric(float64(p.Bytes())/1e6, "MB")
		})
	}
}
