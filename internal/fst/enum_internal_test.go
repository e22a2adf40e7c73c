package fst

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"seqmine/internal/dict"
	"seqmine/internal/paperex"
)

// enumPatterns mirror flatTestPatterns (flat_test.go): one pattern per output
// class of the flattened transition table.
var enumPatterns = []string{
	paperex.PatternExpression,
	"[.*(.)]{1,5}.*",
	".*(.^)[.{0,1}(.^)]{1,4}.*",
	".*(a1).*(b).*",
	"(A^).*",
}

// enumOracle collects the distinct candidates of the pointer-walking
// simulation — the pre-flattening reference the flat enumeration must match.
func enumOracle(f *FST, T []dict.ItemID, sigma int64) [][]dict.ItemID {
	set := map[string][]dict.ItemID{}
	f.enumerateLimited(T, sigma, func(cand []dict.ItemID) bool {
		key := string(dict.AppendPackedKey(nil, cand))
		if _, ok := set[key]; !ok {
			set[key] = append([]dict.ItemID(nil), cand...)
		}
		return true
	})
	out := make([][]dict.ItemID, 0, len(set))
	for _, c := range set {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return lessSeq(out[i], out[j]) })
	return out
}

// TestFlatEnumerationMatchesPointerOracle cross-checks the flat candidate
// enumeration (SigmaView filtering, pooled scratch, open-addressing dedup)
// against the pointer-walking oracle on the running example and random
// sequences, for unfiltered and filtered thresholds, including the early-stop
// truncation semantics of CountCandidatesUpTo.
func TestFlatEnumerationMatchesPointerOracle(t *testing.T) {
	d := paperex.Dict()
	rng := rand.New(rand.NewSource(7))
	seqs := append([][]dict.ItemID{nil}, paperex.DB(d)...)
	for trial := 0; trial < 40; trial++ {
		T := make([]dict.ItemID, rng.Intn(10))
		for j := range T {
			T[j] = dict.ItemID(rng.Intn(d.Size()) + 1)
		}
		seqs = append(seqs, T)
	}
	for _, pat := range enumPatterns {
		f := MustCompile(pat, d)
		for _, sigma := range []int64{0, 2, 4} {
			for _, T := range seqs {
				want := enumOracle(f, T, sigma)
				got := f.EnumerateCandidates(T, sigma)
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%q σ=%d T=%v: flat enumeration = %v, want %v", pat, sigma, T, got, want)
				}
				if n := f.CountCandidates(T, sigma); n != len(want) {
					t.Fatalf("%q σ=%d T=%v: CountCandidates = %d, want %d", pat, sigma, T, n, len(want))
				}
				const limit = 3
				n, trunc := f.CountCandidatesUpTo(T, sigma, limit)
				wantN, wantTrunc := len(want), false
				if wantN >= limit {
					wantN, wantTrunc = limit, true
				}
				if n != wantN || trunc != wantTrunc {
					t.Fatalf("%q σ=%d T=%v: CountCandidatesUpTo = (%d, %v), want (%d, %v)",
						pat, sigma, T, n, trunc, wantN, wantTrunc)
				}
			}
		}
	}
}

// TestSigmaViewCached checks that Sigma builds one view per threshold and
// returns the cached view on later calls, with sigma <= 0 collapsing to one
// unfiltered view.
func TestSigmaViewCached(t *testing.T) {
	fl := MustCompile(paperex.PatternExpression, paperex.Dict()).Flatten()
	if fl.Sigma(2) != fl.Sigma(2) {
		t.Fatal("Sigma(2) must return the cached view")
	}
	if fl.Sigma(0) != fl.Sigma(-5) {
		t.Fatal("sigma <= 0 must collapse to the single unfiltered view")
	}
	if fl.Sigma(2) == fl.Sigma(3) {
		t.Fatal("distinct thresholds must get distinct views")
	}
}
