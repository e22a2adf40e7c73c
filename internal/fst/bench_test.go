package fst_test

import (
	"math/rand"
	"testing"

	"seqmine/internal/dict"
	"seqmine/internal/fst"
	"seqmine/internal/paperex"
)

// benchSequences builds a deterministic workload of random sequences over the
// running-example vocabulary.
func benchSequences(n, maxLen int) (*dict.Dictionary, [][]dict.ItemID) {
	d := paperex.Dict()
	rng := rand.New(rand.NewSource(1))
	db := make([][]dict.ItemID, n)
	for i := range db {
		l := rng.Intn(maxLen) + 1
		seq := make([]dict.ItemID, l)
		for j := range seq {
			seq[j] = dict.ItemID(rng.Intn(d.Size()) + 1)
		}
		db[i] = seq
	}
	return d, db
}

func BenchmarkCompile(b *testing.B) {
	d := paperex.Dict()
	patterns := map[string]string{
		"running-example": paperex.PatternExpression,
		"max-length":      "[.*(.)]{1,5}.*",
		"gap-hierarchy":   ".*(.^)[.{0,1}(.^)]{1,4}.*",
	}
	for name, pat := range patterns {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fst.Compile(pat, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAcceptMatrix(b *testing.B) {
	d, db := benchSequences(200, 12)
	f := fst.MustCompile(paperex.PatternExpression, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.AcceptMatrix(db[i%len(db)])
	}
}

func BenchmarkEnumerateCandidates(b *testing.B) {
	d, db := benchSequences(200, 10)
	f := fst.MustCompile(paperex.PatternExpression, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.EnumerateCandidates(db[i%len(db)], paperex.Sigma)
	}
}

func BenchmarkForEachRun(b *testing.B) {
	d, db := benchSequences(200, 10)
	flat := fst.MustCompile(paperex.PatternExpression, d).Flatten()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flat.ForEachRun(db[i%len(db)], paperex.Sigma, func([][]dict.ItemID, int) bool { return true })
	}
}

func BenchmarkAccepts(b *testing.B) {
	d, db := benchSequences(200, 12)
	f := fst.MustCompile(".*(.^)[.{0,1}(.^)]{1,4}.*", d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Accepts(db[i%len(db)])
	}
}

// BenchmarkFlatAcceptBits measures the flattened backward reachability pass
// over the bitset accept matrix — the per-sequence precomputation of the
// rewritten DESQ-DFS hot path. The caller-provided dst keeps it to one
// amortized allocation, which the report pins.
func BenchmarkFlatAcceptBits(b *testing.B) {
	d, db := benchSequences(200, 12)
	flat := fst.MustCompile(paperex.PatternExpression, d).Flatten()
	var dst []uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		T := db[i%len(db)]
		n := (len(T) + 1) * flat.Words()
		if cap(dst) < n {
			dst = make([]uint64, n)
		}
		clear(dst[:n])
		flat.AcceptBits(T, dst[:n])
	}
}

// BenchmarkCanAccept measures the two-pass reachability prefilter: the
// O(states)-space scan that decides whether a sequence has any accepting run
// at all. It must stay allocation-free (pooled scratch) because every input
// sequence of a prefiltered run pays it.
func BenchmarkCanAccept(b *testing.B) {
	d, db := benchSequences(200, 12)
	flat := fst.MustCompile(paperex.PatternExpression, d).Flatten()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flat.CanAccept(db[i%len(db)])
	}
}
