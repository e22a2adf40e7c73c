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

// BenchmarkReach measures the fused backward reachability pass — accept and
// finish matrices in one sweep, the per-sequence set-up of DESQ-DFS — into a
// reused, never-zeroed buffer.
func BenchmarkReach(b *testing.B) {
	d, db := benchSequences(200, 12)
	flat := fst.MustCompile(paperex.PatternExpression, d).Flatten()
	buf := make([]uint64, 2*13*flat.Words())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		T := db[i%len(db)]
		n := (len(T) + 1) * flat.Words()
		flat.Reach(T, buf[:n], buf[n:2*n])
	}
}

// TestReachDoesNotAllocate pins BenchmarkReach's pass at zero allocations:
// the matrices go into the caller's buffer.
func TestReachDoesNotAllocate(t *testing.T) {
	d, db := benchSequences(200, 12)
	flat := fst.MustCompile(paperex.PatternExpression, d).Flatten()
	buf := make([]uint64, 2*13*flat.Words())
	if n := testing.AllocsPerRun(20, func() {
		for _, T := range db {
			n := (len(T) + 1) * flat.Words()
			flat.Reach(T, buf[:n], buf[n:2*n])
		}
	}); n != 0 {
		t.Fatalf("Reach allocates %.0f times per database pass, want 0", n)
	}
}

// TestWalksDoNotAllocate pins the two DFS walks over the pooled enumScratch
// at zero allocations per warm pass over the fixture of BenchmarkForEachRun
// and BenchmarkEnumerateCandidates: the rows, prefix, run stack and dedup
// table all come from the pool.
func TestWalksDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	d, db := benchSequences(200, 10)
	flat := fst.MustCompile(paperex.PatternExpression, d).Flatten()
	runs, cands := 0, 0
	for _, T := range db {
		flat.ForEachRun(T, paperex.Sigma, func([][]dict.ItemID, int) bool { runs++; return true })
		flat.ForEachDistinctCandidate(T, paperex.Sigma, func([]dict.ItemID) bool { cands++; return true })
	}
	if runs == 0 || cands == 0 {
		t.Fatalf("%d runs, %d candidates; the pins are vacuous", runs, cands)
	}
	walks := map[string]func([]dict.ItemID){
		"ForEachRun": func(T []dict.ItemID) {
			flat.ForEachRun(T, paperex.Sigma, func([][]dict.ItemID, int) bool { return true })
		},
		"ForEachDistinctCandidate": func(T []dict.ItemID) {
			flat.ForEachDistinctCandidate(T, paperex.Sigma, func([]dict.ItemID) bool { return true })
		},
	}
	for name, walk := range walks {
		if n := testing.AllocsPerRun(20, func() {
			for _, T := range db {
				walk(T)
			}
		}); n != 0 {
			t.Errorf("%s allocates %.0f times per database pass, want 0", name, n)
		}
	}
}

// BenchmarkCanAccept measures the two-row reachability verdict: does the
// sequence have any accepting run at all. It must stay allocation-free because
// callers pay it once per input sequence.
func BenchmarkCanAccept(b *testing.B) {
	d, db := benchSequences(200, 12)
	flat := fst.MustCompile(paperex.PatternExpression, d).Flatten()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flat.CanAccept(db[i%len(db)])
	}
}
