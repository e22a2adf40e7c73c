package fst_test

import (
	"math/rand"
	"testing"

	"seqmine/internal/datagen"
	"seqmine/internal/dict"
	"seqmine/internal/experiments"
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
	flat := fst.MustCompile(paperex.PatternExpression, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flat.ForEachRun(db[i%len(db)], paperex.Sigma, func([][]dict.ItemID, int) bool { return true })
	}
}

// reachFixture is an FST and the sequences its backward passes run over.
type reachFixture struct {
	name string
	flat *fst.FST
	db   [][]dict.ItemID
}

// reachFixtures are the running example's expression on random sequences
// over its vocabulary, and two dot-only loose constraints on ClueWeb-like
// sentences, whose states are live at most positions: T2(0,5), with packed
// rows (6 states), and T3(1,5), without (10 states).
func reachFixtures(tb testing.TB) []reachFixture {
	d, db := benchSequences(200, 12)
	cw, err := datagen.ClueWeb(datagen.ClueWebConfig{NumSentences: 200, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return []reachFixture{
		{"paperex", fst.MustCompile(paperex.PatternExpression, d), db},
		{"T2(0,5)-clueweb", fst.MustCompile(experiments.T2Expr(0, 5), cw.Dict), cw.Sequences},
		{"T3(1,5)-clueweb", fst.MustCompile(experiments.T3Expr(1, 5), cw.Dict), cw.Sequences},
	}
}

// buffer returns a never-zeroed buffer for the row block, with live rows, of
// the fixture's longest sequence; it holds its accept matrix too.
func (fx reachFixture) buffer() []uint64 {
	n := 0
	for _, T := range fx.db {
		n = max(n, len(T))
	}
	return make([]uint64, (n+1)*fx.flat.RowLayout(true).Stride)
}

// positions is the number of items in the sequences of db.
func positions(db [][]dict.ItemID) int {
	n := 0
	for _, T := range db {
		n += len(T)
	}
	return n
}

// BenchmarkReach measures the backward reachability pass — the accept
// matrix, the first pass of every simulator but DESQ-DFS — into a reused,
// never-zeroed buffer, in ns per sequence position.
func BenchmarkReach(b *testing.B) {
	for _, fx := range reachFixtures(b) {
		b.Run(fx.name, func(b *testing.B) {
			buf := fx.buffer()
			b.ReportAllocs()
			for b.Loop() {
				for _, T := range fx.db {
					fx.flat.Reach(T, buf)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*positions(fx.db)), "ns/pos")
		})
	}
}

// rowsPivots are the pivots BenchmarkRows and its allocation pins pass:
// none (no live rows) and the most frequent item, fid 1.
var rowsPivots = map[string]dict.ItemID{"no-pivot": dict.None, "pivot": 1}

// BenchmarkRows measures the one pass DESQ-DFS sets a sequence up with — its
// row block, with live rows under a pivot — into a reused, never-zeroed
// buffer, in ns per sequence position.
func BenchmarkRows(b *testing.B) {
	for _, fx := range reachFixtures(b) {
		for name, k := range rowsPivots {
			b.Run(fx.name+"/"+name, func(b *testing.B) {
				buf := fx.buffer()
				b.ReportAllocs()
				for b.Loop() {
					for _, T := range fx.db {
						fx.flat.Rows(T, k, buf)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*positions(fx.db)), "ns/pos")
			})
		}
	}
}

// TestReachDoesNotAllocate pins BenchmarkReach's pass at zero allocations:
// the matrix goes into the caller's buffer.
func TestReachDoesNotAllocate(t *testing.T) {
	for _, fx := range reachFixtures(t) {
		buf := fx.buffer()
		if n := testing.AllocsPerRun(20, func() {
			for _, T := range fx.db {
				fx.flat.Reach(T, buf)
			}
		}); n != 0 {
			t.Fatalf("%s: Reach allocates %.0f times per database pass, want 0", fx.name, n)
		}
	}
}

// TestProductiveDoesNotAllocate pins BenchmarkRows's pass without a pivot —
// accept, prod and finish rows — at zero allocations: the block goes into the
// caller's buffer.
func TestProductiveDoesNotAllocate(t *testing.T) {
	testRowsDoNotAllocate(t, "no-pivot")
}

// TestPivotLiveDoesNotAllocate pins BenchmarkRows's pass under a pivot — the
// same rows plus live — at zero allocations: the block goes into the caller's
// buffer.
func TestPivotLiveDoesNotAllocate(t *testing.T) {
	testRowsDoNotAllocate(t, "pivot")
}

// testRowsDoNotAllocate checks that Rows under rowsPivots[name] allocates
// nothing per pass over each fixture, one that accepts some sequence.
func testRowsDoNotAllocate(t *testing.T, name string) {
	k := rowsPivots[name]
	for _, fx := range reachFixtures(t) {
		buf, accepted := fx.buffer(), 0
		for _, T := range fx.db {
			if fx.flat.Rows(T, k, buf) {
				accepted++
			}
		}
		if accepted == 0 {
			t.Fatalf("%s: no sequence accepted; the pin is vacuous", fx.name)
		}
		if n := testing.AllocsPerRun(20, func() {
			for _, T := range fx.db {
				fx.flat.Rows(T, k, buf)
			}
		}); n != 0 {
			t.Fatalf("%s, %s: Rows allocates %.0f times per database pass, want 0", fx.name, name, n)
		}
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
	flat := fst.MustCompile(paperex.PatternExpression, d)
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
	flat := fst.MustCompile(paperex.PatternExpression, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flat.CanAccept(db[i%len(db)])
	}
}
