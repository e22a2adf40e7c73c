package pivot_test

import (
	"math/rand"
	"sync"
	"testing"

	"seqmine/internal/dict"
	"seqmine/internal/experiments"
	"seqmine/internal/fst"
	"seqmine/internal/paperex"
	"seqmine/internal/pivot"
)

func benchWorkload(n, maxLen int) (*dict.Dictionary, *fst.FST, [][]dict.ItemID) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	rng := rand.New(rand.NewSource(2))
	db := make([][]dict.ItemID, n)
	for i := range db {
		l := rng.Intn(maxLen) + 1
		seq := make([]dict.ItemID, l)
		for j := range seq {
			seq[j] = dict.ItemID(rng.Intn(d.Size()) + 1)
		}
		db[i] = seq
	}
	return d, f, db
}

// BenchmarkAnalyzeGrid measures pivot search with the position-state grid
// (the D-SEQ map phase).
func BenchmarkAnalyzeGrid(b *testing.B) {
	_, f, db := benchWorkload(200, 12)
	s := pivot.NewSearcher(f, paperex.Sigma, pivot.DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Analyze(db[i%len(db)])
	}
}

// BenchmarkAnalyzeRuns measures the "no grid" ablation: pivot search by
// enumerating all accepting runs (the AnalyzeRuns reference).
func BenchmarkAnalyzeRuns(b *testing.B) {
	_, f, db := benchWorkload(200, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pivot.AnalyzeRuns(f, paperex.Sigma, db[i%len(db)])
	}
}

// BenchmarkRewrite measures relevant-range rewriting on top of the analysis.
func BenchmarkRewrite(b *testing.B) {
	_, f, db := benchWorkload(200, 12)
	s := pivot.NewSearcher(f, paperex.Sigma, pivot.DefaultOptions())
	analyses := make([]*pivot.Analysis, len(db))
	for i, T := range db {
		analyses[i] = s.Analyze(T)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % len(db)
		for _, k := range analyses[idx].Pivots {
			s.Rewrite(db[idx], analyses[idx], k)
		}
	}
}

func BenchmarkMerge(b *testing.B) {
	d := paperex.Dict()
	u := []dict.ItemID{d.MustFid("b"), d.MustFid("c")}
	q := []dict.ItemID{d.MustFid("d"), d.MustFid("a1")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pivot.Merge(u, q)
	}
}

// TestSearcherAllocations pins the warm kernels on the fixture of
// BenchmarkAnalyzeGrid and BenchmarkRewrite: a grid analysis allocates its
// Analysis and, when T has pivots, the pivot slice and the one backing array
// of the relevance ranges — the grid itself is pooled; AnalyzeInto on a
// reused Analysis allocates nothing, and neither does a rewrite (it aliases
// T).
func TestSearcherAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	_, f, db := benchWorkload(200, 12)
	s := pivot.NewSearcher(f, paperex.Sigma, pivot.DefaultOptions())
	analyses := make([]*pivot.Analysis, len(db))
	want := len(db)
	for i, T := range db {
		analyses[i] = s.Analyze(T)
		if len(analyses[i].Pivots) > 0 {
			want += 2
		}
	}
	if want == len(db) {
		t.Fatal("no sequence has a pivot; the pins are vacuous")
	}
	if n := testing.AllocsPerRun(20, func() {
		for _, T := range db {
			s.Analyze(T)
		}
	}); n > float64(want) {
		t.Errorf("Analyze allocates %.0f times per database pass, want <= %d", n, want)
	}
	var reused pivot.Analysis
	if n := testing.AllocsPerRun(20, func() {
		for _, T := range db {
			s.AnalyzeInto(T, &reused)
		}
	}); n != 0 {
		t.Errorf("AnalyzeInto allocates %.0f times per database pass into a reused Analysis, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		for i, T := range db {
			for _, k := range analyses[i].Pivots {
				s.Rewrite(T, analyses[i], k)
			}
		}
	}); n != 0 {
		t.Errorf("Rewrite allocates %.0f times per database pass, want 0", n)
	}
}

// TestMergeAllocatesOnlyItsResult pins BenchmarkMerge's call at one
// allocation, the returned set.
func TestMergeAllocatesOnlyItsResult(t *testing.T) {
	d := paperex.Dict()
	u := []dict.ItemID{d.MustFid("b"), d.MustFid("c")}
	q := []dict.ItemID{d.MustFid("d"), d.MustFid("a1")}
	if n := testing.AllocsPerRun(100, func() { pivot.Merge(u, q) }); n != 1 {
		t.Fatalf("Merge allocates %.0f times per call, want 1", n)
	}
}

var (
	t3Once sync.Once
	t3FST  *fst.FST
	t3DB   [][]dict.ItemID
	t3Err  error
)

// t3Workload builds the AMZN-F dataset and the loose T3 constraint of the
// end-to-end BenchmarkAlgorithms_T3, scaled down to the map phase: the
// returned database is what D-SEQ's map workers analyze per sequence.
func t3Workload(b *testing.B) (*fst.FST, [][]dict.ItemID) {
	b.Helper()
	t3Once.Do(func() {
		ds, err := experiments.Generate(experiments.Scale{
			NYTSentences: 1, AmazonCustomers: 500, ClueWebSentences: 1, Workers: 2, Seed: 1,
		})
		if err != nil {
			t3Err = err
			return
		}
		t3FST = fst.MustCompile(experiments.T3Expr(1, 5), ds.AMZNF.Dict)
		t3DB = ds.AMZNF.Sequences
	})
	if t3Err != nil {
		b.Fatal(t3Err)
	}
	return t3FST, t3DB
}

// BenchmarkPivotAnalyze_T3 measures one full map-phase pivot analysis pass
// over the AMZN-F T3 workload — the per-sequence kernel behind
// BenchmarkAlgorithms_T3/dseq — with the grid and its rewrites (Grid), and
// with the run-enumeration reference (Runs): Fig. 10a's "no grid" column,
// measured on the map side it changes.
func BenchmarkPivotAnalyze_T3(b *testing.B) {
	f, db := t3Workload(b)
	b.Run("Grid", func(b *testing.B) {
		s := pivot.NewSearcher(f, 10, pivot.DefaultOptions())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, T := range db {
				a := s.Analyze(T)
				for _, k := range a.Pivots {
					s.Rewrite(T, a, k)
				}
			}
		}
	})
	b.Run("Runs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, T := range db {
				pivot.AnalyzeRuns(f, 10, T)
			}
		}
	})
}
