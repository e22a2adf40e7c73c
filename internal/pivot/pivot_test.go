package pivot_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"seqmine/internal/dict"
	"seqmine/internal/fst"
	"seqmine/internal/paperex"
	"seqmine/internal/pivot"
)

func fids(d *dict.Dictionary, names ...string) []dict.ItemID {
	out := make([]dict.ItemID, len(names))
	for i, n := range names {
		out[i] = d.MustFid(n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestMergePaperExample reproduces the ⊕ examples of Sec. V-A.
func TestMergePaperExample(t *testing.T) {
	d := paperex.Dict()
	set := func(names ...string) []dict.ItemID { return fids(d, names...) }

	// Run r4 with output sets {b,c}–{A}–{d,a1} has pivots {c, d, a1}.
	got := pivot.MergeAll(set("b", "c"), set("A"), set("d", "a1"))
	if want := set("c", "d", "a1"); !reflect.DeepEqual(got, want) {
		t.Errorf("K(r4) = %v, want %v", got, want)
	}
	// Run r4' of length 1: all items are pivots.
	if got, want := pivot.MergeAll(set("b", "c")), set("b", "c"); !reflect.DeepEqual(got, want) {
		t.Errorf("K(r4') = %v, want %v", got, want)
	}
	// Run r4'' = {b,c}–{A}: pivots {A, c}.
	if got, want := pivot.MergeAll(set("b", "c"), set("A")), set("A", "c"); !reflect.DeepEqual(got, want) {
		t.Errorf("K(r4'') = %v, want %v", got, want)
	}
	// ε sets do not constrain: {ε} ⊕ {a1} = {a1}.
	if got, want := pivot.MergeAll(nil, set("a1")), set("a1"); !reflect.DeepEqual(got, want) {
		t.Errorf("MergeAll(ε, {a1}) = %v, want %v", got, want)
	}
	// All-ε runs have no pivots.
	if got := pivot.MergeAll(nil, nil); len(got) != 0 {
		t.Errorf("MergeAll(ε, ε) = %v, want empty", got)
	}
}

func TestMergeCommutativeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	randSet := func() []dict.ItemID {
		n := rng.Intn(4)
		m := map[dict.ItemID]bool{}
		for i := 0; i < n; i++ {
			m[dict.ItemID(rng.Intn(7)+1)] = true
		}
		var s []dict.ItemID
		for v := range m {
			s = append(s, v)
		}
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s
	}
	for i := 0; i < 200; i++ {
		a, b, c := randSet(), randSet(), randSet()
		ab := pivot.Merge(a, b)
		ba := pivot.Merge(b, a)
		if !reflect.DeepEqual(ab, ba) {
			t.Fatalf("not commutative: %v ⊕ %v", a, b)
		}
		left := pivot.Merge(pivot.Merge(a, b), c)
		right := pivot.Merge(a, pivot.Merge(b, c))
		if !reflect.DeepEqual(left, right) {
			t.Fatalf("not associative: %v %v %v -> %v vs %v", a, b, c, left, right)
		}
	}
}

// bruteForcePivots computes K(T) from the candidate subsequences directly.
func bruteForcePivots(f *fst.FST, T []dict.ItemID, sigma int64) []dict.ItemID {
	set := map[dict.ItemID]bool{}
	f.ForEachDistinctCandidate(T, sigma, func(cand []dict.ItemID) bool {
		set[dict.PivotOf(cand)] = true
		return true
	})
	out := make([]dict.ItemID, 0, len(set))
	for w := range set {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestAnalyzeRunningExample checks K(T) for all sequences of the running
// example against Fig. 3 (σ=2: infrequent pivots are excluded).
func TestAnalyzeRunningExample(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	db := paperex.DB(d)

	want := [][]string{
		{"a1", "c"}, // T1
		{"a1"},      // T2 (e is infrequent)
		{},          // T3
		{},          // T4 (all candidates contain a2)
		{"a1"},      // T5
	}
	s := pivot.NewSearcher(f, paperex.Sigma, pivot.DefaultOptions())
	for i, T := range db {
		wantPivots := fids(d, want[i]...)
		if len(wantPivots) == 0 {
			wantPivots = nil
		}
		for name, got := range map[string][]dict.ItemID{
			"grid": s.Analyze(T).Pivots,
			"runs": pivot.AnalyzeRuns(f, paperex.Sigma, T),
		} {
			if len(got) == 0 {
				got = nil
			}
			if !reflect.DeepEqual(got, wantPivots) {
				t.Errorf("%s: K(T%d) = %v, want %v", name, i+1, decode(d, got), want[i])
			}
		}
	}
}

// TestAnalyzeUnrestrictedSigma checks K(T) at σ=1 where nothing is excluded
// (the keys shown in Fig. 3 including the crossed-out partitions).
func TestAnalyzeUnrestrictedSigma(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	db := paperex.DB(d)
	s := pivot.NewSearcher(f, 1, pivot.DefaultOptions())

	want := [][]string{
		{"a1", "c"},
		{"a1", "e"},
		{},
		{"a2"},
		{"a1"},
	}
	for i, T := range db {
		a := s.Analyze(T)
		if got := decode(d, a.Pivots); !reflect.DeepEqual(got, sortedNames(d, want[i])) {
			t.Errorf("K(T%d) = %v, want %v", i+1, got, want[i])
		}
	}
}

func decode(d *dict.Dictionary, items []dict.ItemID) []string {
	if len(items) == 0 {
		return nil
	}
	out := make([]string, len(items))
	for i, w := range items {
		out[i] = d.Name(w)
	}
	return out
}

func sortedNames(d *dict.Dictionary, names []string) []string {
	if len(names) == 0 {
		return nil
	}
	ids := fids(d, names...)
	return decode(d, ids)
}

// TestRewriteRunningExample checks ρa1(T2) = a1 e a1 e b (Sec. V-B).
func TestRewriteRunningExample(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	db := paperex.DB(d)
	s := pivot.NewSearcher(f, paperex.Sigma, pivot.DefaultOptions())

	T2 := db[1]
	a := s.Analyze(T2)
	a1 := d.MustFid("a1")
	first, last := a.Range(a1)
	if first != 2 || last != 6 {
		t.Errorf("Range(a1) = (%d,%d), want (2,6)", first, last)
	}
	got := d.DecodeString(s.Rewrite(T2, a, a1))
	if got != "a1 e a1 e b" {
		t.Errorf("ρa1(T2) = %q, want %q", got, "a1 e a1 e b")
	}

	// T5 is already minimal for pivot a1.
	T5 := db[4]
	a5 := s.Analyze(T5)
	if got := d.DecodeString(s.Rewrite(T5, a5, a1)); got != "a1 a1 b" {
		t.Errorf("ρa1(T5) = %q, want %q", got, "a1 a1 b")
	}
}

// TestAnalyzeMatchesBruteForce compares the grid and the run enumeration
// (AnalyzeRuns) against a brute-force computation of K(T) from Gσπ(T) on
// random sequences, and AnalyzeInto on a reused Analysis against a fresh
// Analyze.
func TestAnalyzeMatchesBruteForce(t *testing.T) {
	d := paperex.Dict()
	patterns := []string{
		paperex.PatternExpression,
		"[.*(.)]{1,3}.*",
		".*(A^)[.{0,1}(.^)]{1,2}.*",
		".*(d) .* (b).*",
	}
	rng := rand.New(rand.NewSource(11))
	for _, pat := range patterns {
		f := fst.MustCompile(pat, d)
		grid := pivot.NewSearcher(f, paperex.Sigma, pivot.DefaultOptions())
		var reused pivot.Analysis
		for trial := 0; trial < 150; trial++ {
			n := rng.Intn(8)
			T := make([]dict.ItemID, n)
			for i := range T {
				T[i] = dict.ItemID(rng.Intn(d.Size()) + 1)
			}
			want := bruteForcePivots(f, T, paperex.Sigma)
			if len(want) == 0 {
				want = nil
			}
			gotGrid := grid.Analyze(T).Pivots
			gotRuns := pivot.AnalyzeRuns(f, paperex.Sigma, T)
			if !reflect.DeepEqual(gotGrid, want) {
				t.Fatalf("pattern %q T=%v: grid pivots %v, want %v", pat, d.DecodeSequence(T), decode(d, gotGrid), decode(d, want))
			}
			if !reflect.DeepEqual(gotRuns, want) {
				t.Fatalf("pattern %q T=%v: run pivots %v, want %v", pat, d.DecodeSequence(T), decode(d, gotRuns), decode(d, want))
			}
			// A reused Analysis must hold exactly what a fresh one does,
			// whatever the sequence before left in it.
			fresh := grid.Analyze(T)
			got := grid.AnalyzeInto(T, &reused)
			if len(got.Pivots) != len(fresh.Pivots) || (len(fresh.Pivots) > 0 && !reflect.DeepEqual(got.Pivots, fresh.Pivots)) {
				t.Fatalf("pattern %q T=%v: reused analysis pivots %v, fresh %v", pat, d.DecodeSequence(T), got.Pivots, fresh.Pivots)
			}
			for _, k := range append(fresh.Pivots, dict.ItemID(d.Size()+1)) {
				gf, gl := got.Range(k)
				ff, fl := fresh.Range(k)
				if gf != ff || gl != fl {
					t.Fatalf("pattern %q T=%v pivot %d: reused range [%d,%d], fresh [%d,%d]", pat, d.DecodeSequence(T), k, gf, gl, ff, fl)
				}
			}
		}
	}
}

// rewritePatterns are the expressions the rewrite is held to candidates on:
// final states that absorb any tail (every one ending in .*), a branch that
// stops in a final state right after a position the other branch makes
// relevant, and no trailing .* at all.
var rewritePatterns = []string{
	paperex.PatternExpression,
	"[.*(.)]{1,3}.*",
	".*(A^)[.{0,1}(.^)]{1,2}.*",
	"(a1) b .*|(a1) (b)",
	"[(A^) [c|d] .*|(A^) (.)]",
	".*(A^)[.{0,1}(.^)]{1,2}",
}

// checkRewrite asserts that for every pivot k of T, the pivot-k candidates of
// Gσπ(T) and Gσπ(ρk(T)) coincide: D-SEQ's partition k counts T's support.
func checkRewrite(t *testing.T, pat string, f *fst.FST, sigma int64, T []dict.ItemID) {
	t.Helper()
	d := f.Dict()
	s := pivot.NewSearcher(f, sigma, pivot.DefaultOptions())
	a := s.Analyze(T)
	for _, k := range a.Pivots {
		rho := s.Rewrite(T, a, k)
		if got, want := pivotCandidates(f, rho, sigma, k), pivotCandidates(f, T, sigma, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("pattern %q σ=%d T=%v pivot %s: ρk(T)=%v changed pivot candidates\n got %v\nwant %v",
				pat, sigma, d.DecodeSequence(T), d.Name(k), d.DecodeSequence(rho), got, want)
		}
	}
}

// TestRewritePreservesPivotCandidates runs checkRewrite on random sequences.
func TestRewritePreservesPivotCandidates(t *testing.T) {
	d := paperex.Dict()
	rng := rand.New(rand.NewSource(23))
	for _, pat := range rewritePatterns {
		f := fst.MustCompile(pat, d)
		for trial := 0; trial < 150; trial++ {
			T := make([]dict.ItemID, rng.Intn(8))
			for i := range T {
				T[i] = dict.ItemID(rng.Intn(d.Size()) + 1)
			}
			checkRewrite(t, pat, f, paperex.Sigma, T)
		}
	}
}

// FuzzRewriteKeepsPivotCandidates runs checkRewrite on fuzzed sequences and
// thresholds.
func FuzzRewriteKeepsPivotCandidates(f *testing.F) {
	f.Add([]byte{3, 0, 4, 3, 0, 4}, int64(1)) // a1 b c a1 b c: a cut tail over-counts "a1 b"
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}, int64(2))
	f.Add([]byte{}, int64(0))
	d := paperex.Dict()
	fsts := make([]*fst.FST, len(rewritePatterns))
	for i, pat := range rewritePatterns {
		fsts[i] = fst.MustCompile(pat, d)
	}
	f.Fuzz(func(t *testing.T, data []byte, sigma int64) {
		if len(data) > 12 {
			data = data[:12]
		}
		if sigma < 0 || sigma > 8 {
			sigma = paperex.Sigma
		}
		T := make([]dict.ItemID, len(data))
		for i, c := range data {
			T[i] = dict.ItemID(int(c)%d.Size() + 1)
		}
		for i, fm := range fsts {
			checkRewrite(t, rewritePatterns[i], fm, sigma, T)
		}
	})
}

func pivotCandidates(f *fst.FST, T []dict.ItemID, sigma int64, k dict.ItemID) map[string]bool {
	out := map[string]bool{}
	f.ForEachDistinctCandidate(T, sigma, func(cand []dict.ItemID) bool {
		if dict.PivotOf(cand) == k {
			out[f.Dict().DecodeString(cand)] = true
		}
		return true
	})
	return out
}

func TestAnalyzeEmptySequence(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	s := pivot.NewSearcher(f, paperex.Sigma, pivot.DefaultOptions())
	if a := s.Analyze(nil); len(a.Pivots) != 0 {
		t.Errorf("empty sequence must have no pivots, got %v", a.Pivots)
	}
}

// TestRewriteEdgeCases pins the defensive paths of ρk(T): nil analysis, empty
// sequences and non-pivot items must all return the input unchanged.
func TestRewriteEdgeCases(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	db := paperex.DB(d)
	s := pivot.NewSearcher(f, paperex.Sigma, pivot.DefaultOptions())
	T2 := db[1]

	if got := s.Rewrite(T2, nil, d.MustFid("a1")); !reflect.DeepEqual(got, T2) {
		t.Errorf("nil analysis: Rewrite = %v, want input unchanged", got)
	}
	aEmpty := s.Analyze(nil)
	if got := s.Rewrite(nil, aEmpty, d.MustFid("a1")); len(got) != 0 {
		t.Errorf("empty sequence: Rewrite = %v, want empty", got)
	}
	// A non-pivot item falls back to the full relevance range.
	a := s.Analyze(T2)
	nonPivot := d.MustFid("c") // K(T2) = {a1}
	if first, last := a.Range(nonPivot); first != 0 || last != len(T2)-1 {
		t.Errorf("Range(non-pivot) = (%d,%d), want full range", first, last)
	}
	if got := s.Rewrite(T2, a, nonPivot); !reflect.DeepEqual(got, T2) {
		t.Errorf("non-pivot Rewrite = %v, want input unchanged", got)
	}
	// A sequence without accepting runs has no pivots and an unrestricted range.
	T3 := db[2]
	a3 := s.Analyze(T3)
	if len(a3.Pivots) != 0 {
		t.Fatalf("K(T3) = %v, want empty", a3.Pivots)
	}
	if got := s.Rewrite(T3, a3, d.MustFid("a1")); !reflect.DeepEqual(got, T3) {
		t.Errorf("no-pivot Rewrite = %v, want input unchanged", got)
	}
}
