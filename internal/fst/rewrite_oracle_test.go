package fst_test

import (
	"math/rand"
	"reflect"
	"testing"

	"seqmine/internal/dict"
	"seqmine/internal/fst"
	"seqmine/internal/pivot"
)

// TestRewriteKeepsPivotCandidates is the soundness oracle of D-SEQ's rewrite
// over generated DAG hierarchies × generated expressions, with and without
// the leading and trailing .*: for every sequence T and every k ∈ K(T), the
// pivot-k candidates of ρk(T) are those of T. Expressions whose final states
// do not absorb the tail (fst.Flat.FinalsAbsorb) are the ones a cut tail
// would break.
func TestRewriteKeepsPivotCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	checked := map[bool]int{} // pivots checked, by FinalsAbsorb
	for trial := 0; trial < 160; trial++ {
		d := fst.RandomDict(t, rng, 4+rng.Intn(12))
		expr := fst.RandomExpr(rng, d, 3)
		switch trial % 4 {
		case 0:
			expr = ".*" + expr + ".*"
		case 1:
			expr = ".*" + expr
		case 2:
			// The shape that breaks a cut tail: one branch stops in a final
			// state right after a position the other one makes relevant.
			x := fst.RandomExpr(rng, d, 2)
			expr = "[" + x + " " + fst.RandomExpr(rng, d, 0) + " .*|" + x + " " + fst.RandomExpr(rng, d, 0) + "]"
		}
		f, err := fst.Compile(expr, d)
		if err != nil {
			t.Fatalf("generated expression %q does not compile: %v", expr, err)
		}
		absorbs := f.Flatten().FinalsAbsorb()
		for _, sigma := range []int64{1, 3} {
			s := pivot.NewSearcher(f, sigma, pivot.DefaultOptions())
			for n := 0; n < 12; n++ {
				T := make([]dict.ItemID, rng.Intn(8))
				for i := range T {
					T[i] = dict.ItemID(1 + rng.Intn(d.Size()))
				}
				a := s.Analyze(T)
				for _, k := range a.Pivots {
					rho := s.Rewrite(T, a, k)
					if got, want := pivotCandidates(f, rho, sigma, k), pivotCandidates(f, T, sigma, k); !reflect.DeepEqual(got, want) {
						t.Fatalf("%q σ=%d T=%v pivot %s: ρk(T)=%v has pivot candidates\n %v\nwant %v",
							expr, sigma, d.DecodeSequence(T), d.Name(k), d.DecodeSequence(rho), got, want)
					}
					checked[absorbs]++
				}
			}
		}
	}
	if checked[true] == 0 || checked[false] == 0 {
		t.Fatalf("pivots checked with absorbing / non-absorbing final states: %d / %d; both must be exercised",
			checked[true], checked[false])
	}
}

// pivotCandidates is the set of T's candidates at sigma whose pivot is k.
func pivotCandidates(f *fst.FST, T []dict.ItemID, sigma int64, k dict.ItemID) map[string]bool {
	out := map[string]bool{}
	for _, cand := range f.EnumerateCandidates(T, sigma) {
		if dict.PivotOf(cand) == k {
			out[f.Dict().DecodeString(cand)] = true
		}
	}
	return out
}
