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
// over its vocabulary, and a dot-only loose constraint, T2(0,5), on
// ClueWeb-like sentences: every state of the second is live at most
// positions.
func reachFixtures(tb testing.TB) []reachFixture {
	d, db := benchSequences(200, 12)
	cw, err := datagen.ClueWeb(datagen.ClueWebConfig{NumSentences: 200, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return []reachFixture{
		{"paperex", fst.MustCompile(paperex.PatternExpression, d), db},
		{"T2(0,5)-clueweb", fst.MustCompile(experiments.T2Expr(0, 5), cw.Dict), cw.Sequences},
	}
}

// buffer returns a never-zeroed buffer for the accept and finish (or prod)
// matrices of the fixture's longest sequence.
func (fx reachFixture) buffer() []uint64 {
	n := 0
	for _, T := range fx.db {
		n = max(n, len(T))
	}
	return make([]uint64, 2*(n+1)*fx.flat.Words())
}

// positions is the number of items in the sequences of db.
func positions(db [][]dict.ItemID) int {
	n := 0
	for _, T := range db {
		n += len(T)
	}
	return n
}

// BenchmarkReach measures the backward reachability pass — accept and finish
// matrices, the per-sequence set-up of DESQ-DFS — into a reused, never-zeroed
// buffer, in ns per sequence position.
func BenchmarkReach(b *testing.B) {
	for _, fx := range reachFixtures(b) {
		b.Run(fx.name, func(b *testing.B) {
			buf := fx.buffer()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, T := range fx.db {
					n := (len(T) + 1) * fx.flat.Words()
					fx.flat.Reach(T, buf[:n], buf[n:2*n], fx.flat.Words())
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*positions(fx.db)), "ns/pos")
		})
	}
}

// acceptRows returns the all-rows accept matrix of each accepted sequence of
// the fixture, and those sequences.
func (fx reachFixture) acceptRows() ([][]uint64, [][]dict.ItemID) {
	var rows [][]uint64
	var seqs [][]dict.ItemID
	for _, T := range fx.db {
		accept := make([]uint64, (len(T)+1)*fx.flat.Words())
		if fx.flat.Reach(T, accept, nil, fx.flat.Words()) {
			rows, seqs = append(rows, accept), append(seqs, T)
		}
	}
	return rows, seqs
}

// BenchmarkProductive measures the productive pass over the accept rows of
// the fixtures' accepted sequences, in ns per position of those sequences.
func BenchmarkProductive(b *testing.B) {
	for _, fx := range reachFixtures(b) {
		b.Run(fx.name, func(b *testing.B) {
			rows, seqs := fx.acceptRows()
			prod := fx.buffer()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, T := range seqs {
					fx.flat.Productive(T, rows[j], prod, fx.flat.Words())
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*positions(seqs)), "ns/pos")
		})
	}
}

// BenchmarkPivotLive measures the pivot-live pass over the accept rows of the
// fixtures' accepted sequences, for their most frequent item (fid 1) as the
// pivot, in ns per position of those sequences.
func BenchmarkPivotLive(b *testing.B) {
	for _, fx := range reachFixtures(b) {
		b.Run(fx.name, func(b *testing.B) {
			rows, seqs := fx.acceptRows()
			live := fx.buffer()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, T := range seqs {
					fx.flat.PivotLive(T, 1, rows[j], live, fx.flat.Words())
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*positions(seqs)), "ns/pos")
		})
	}
}

// TestReachDoesNotAllocate pins BenchmarkReach's pass at zero allocations:
// the matrices go into the caller's buffer.
func TestReachDoesNotAllocate(t *testing.T) {
	for _, fx := range reachFixtures(t) {
		buf := fx.buffer()
		if n := testing.AllocsPerRun(20, func() {
			for _, T := range fx.db {
				n := (len(T) + 1) * fx.flat.Words()
				fx.flat.Reach(T, buf[:n], buf[n:2*n], fx.flat.Words())
			}
		}); n != 0 {
			t.Fatalf("%s: Reach allocates %.0f times per database pass, want 0", fx.name, n)
		}
	}
}

// TestProductiveDoesNotAllocate pins BenchmarkProductive's pass at zero
// allocations: prod goes into the caller's buffer.
func TestProductiveDoesNotAllocate(t *testing.T) {
	for _, fx := range reachFixtures(t) {
		rows, seqs := fx.acceptRows()
		if len(seqs) == 0 {
			t.Fatalf("%s: no sequence accepted; the pin is vacuous", fx.name)
		}
		prod := fx.buffer()
		if n := testing.AllocsPerRun(20, func() {
			for j, T := range seqs {
				fx.flat.Productive(T, rows[j], prod, fx.flat.Words())
			}
		}); n != 0 {
			t.Fatalf("%s: Productive allocates %.0f times per database pass, want 0", fx.name, n)
		}
	}
}

// TestPivotLiveDoesNotAllocate pins BenchmarkPivotLive's pass at zero
// allocations: live goes into the caller's buffer.
func TestPivotLiveDoesNotAllocate(t *testing.T) {
	for _, fx := range reachFixtures(t) {
		rows, seqs := fx.acceptRows()
		if len(seqs) == 0 {
			t.Fatalf("%s: no sequence accepted; the pin is vacuous", fx.name)
		}
		live := fx.buffer()
		if n := testing.AllocsPerRun(20, func() {
			for j, T := range seqs {
				fx.flat.PivotLive(T, 1, rows[j], live, fx.flat.Words())
			}
		}); n != 0 {
			t.Fatalf("%s: PivotLive allocates %.0f times per database pass, want 0", fx.name, n)
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
