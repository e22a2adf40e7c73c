package fst_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"seqmine/internal/dict"
	"seqmine/internal/fst"
	"seqmine/internal/paperex"
)

// flatTestPatterns exercise every output class of the flattened transition
// table: captured/uncaptured dots, exact items, generalization up to a
// hierarchy item, and forced generalization.
var flatTestPatterns = []string{
	paperex.PatternExpression,
	"[.*(.)]{1,5}.*",
	".*(.^)[.{0,1}(.^)]{1,4}.*",
	".*(a1).*(b).*",
	"(A^).*",
}

// TestFlatEquivalence cross-checks every table operation of the FST against
// the label-level graph it was built from, on random sequences: the shape,
// the firing lists and outputs against the Label methods, the fused Reach
// pass against the label-level accept and finish matrices, the two-row
// CanAccept against Accepts, and the run walk against the label-level run
// enumeration.
func TestFlatEquivalence(t *testing.T) {
	d := paperex.Dict()
	rng := rand.New(rand.NewSource(11))
	for _, pat := range flatTestPatterns {
		f := fst.MustCompile(pat, d)
		if f.Dict() != d {
			t.Fatalf("%q: compiled against another dictionary", pat)
		}
		fst.CheckStepTable(t, pat, f) // the shape, and the firing lists are complete and exact
		lo := 0                       // flat index of state q's first transition
		for q := 0; q < f.NumStates(); q++ {
			trans := f.Transitions(q)
			for item := dict.ItemID(1); int(item) <= d.Size(); item++ {
				for _, fi := range f.Firing(q, item) {
					tr := trans[int(fi)-lo]
					if int(f.To(fi)) != tr.To {
						t.Fatalf("%q: transition target mismatch at state %d", pat, q)
					}
					want := tr.Label.Outputs(d, item)
					single, set := f.OutputsFor(fi, item)
					got := set
					if single != dict.None {
						got = []dict.ItemID{single}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%q: OutputsFor(%d, %v) = %v, want %v", pat, fi, item, got, want)
					}
				}
			}
			lo += len(trans)
		}
		if lo != f.NumTransitions() {
			t.Fatalf("%q: %d transitions in the tables, %d in the graph", pat, f.NumTransitions(), lo)
		}

		for trial := 0; trial < 50; trial++ {
			T := make([]dict.ItemID, rng.Intn(12))
			for j := range T {
				T[j] = dict.ItemID(rng.Intn(d.Size()) + 1)
			}
			fst.CheckReach(t, pat, f, T)
			for _, sigma := range []int64{0, 2, 4} {
				checkRuns(t, pat, f, T, sigma)
			}
		}
	}
}

// checkRuns asserts runs ≡ runs: the flat walker must report, in the same
// order, exactly the label-level oracle's accepting runs with ε positions
// dropped, every output set cut down to its items frequent at sigma and runs
// that lose a whole set removed. shared must never overstate the prefix a
// run has in common with the one reported before it.
func checkRuns(t *testing.T, pat string, f *fst.FST, T []dict.ItemID, sigma int64) {
	t.Helper()
	d := f.Dict()
	var want [][][]dict.ItemID
	f.ForEachLabelRun(T, func(outputs [][]dict.ItemID) bool {
		run := [][]dict.ItemID{}
		for _, set := range outputs {
			if set == nil {
				continue
			}
			var kept []dict.ItemID
			for _, w := range set {
				if sigma <= 0 || d.IsFrequent(w, sigma) {
					kept = append(kept, w)
				}
			}
			if kept == nil {
				return true
			}
			run = append(run, kept)
		}
		want = append(want, run)
		return true
	})
	var got [][][]dict.ItemID
	f.ForEachRun(T, sigma, func(outputs [][]dict.ItemID, shared int) bool {
		run := make([][]dict.ItemID, len(outputs))
		for i, set := range outputs {
			run[i] = append([]dict.ItemID(nil), set...)
		}
		if len(got) == 0 && shared != 0 {
			t.Fatalf("%q sigma %d: first run reports shared = %d (T=%v)", pat, sigma, shared, T)
		}
		if len(got) > 0 {
			prev := got[len(got)-1]
			if shared > len(prev) || shared > len(run) || !reflect.DeepEqual(prev[:shared], run[:shared]) {
				t.Fatalf("%q sigma %d: shared = %d overstates the common prefix of %v and %v (T=%v)",
					pat, sigma, shared, prev, run, T)
			}
		}
		got = append(got, run)
		return true
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q sigma %d: table runs %v, label-level runs %v (T=%v)", pat, sigma, got, want, T)
	}
	// Early stop: the walk ends with the call that returns false.
	if len(want) > 1 {
		calls := 0
		f.ForEachRun(T, sigma, func([][]dict.ItemID, int) bool { calls++; return false })
		if calls != 1 {
			t.Fatalf("%q: walk continued for %d calls after fn returned false", pat, calls)
		}
	}
}

// TestCanAcceptEmpty pins the empty-sequence semantics of CanAccept: an
// empty input is acceptable iff the initial state is final, matching Accepts.
func TestCanAcceptEmpty(t *testing.T) {
	d := paperex.Dict()
	for _, pat := range []string{paperex.PatternExpression, ".*"} {
		f := fst.MustCompile(pat, d)
		if got, want := f.CanAccept(nil), f.Accepts(nil); got != want {
			t.Errorf("%q: CanAccept(nil) = %v, want %v", pat, got, want)
		}
	}
}

// FuzzFlatEquivalence derives a sequence from the fuzz input and cross-checks
// the table-driven simulation primitives against the label-level graph on
// every test pattern: CanAccept must agree with Accepts and the Reach
// matrices with AcceptMatrix and FinishMatrix, and the table run walker must
// enumerate the label-level runs (on a prefix of the input: loose patterns
// have a run per position subset). Any divergence is a miscompiled table.
func FuzzFlatEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add([]byte{})
	f.Add([]byte{9, 9, 9, 1, 1, 1, 2})
	d := paperex.Dict()
	fsts := make([]*fst.FST, len(flatTestPatterns))
	for i, pat := range flatTestPatterns {
		fsts[i] = fst.MustCompile(pat, d)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 32 {
			data = data[:32]
		}
		T := make([]dict.ItemID, len(data))
		for i, c := range data {
			T[i] = dict.ItemID(int(c)%d.Size() + 1)
		}
		for i, fm := range fsts {
			fst.CheckReach(t, flatTestPatterns[i], fm, T)
			checkRuns(t, flatTestPatterns[i], fm, T[:min(len(T), 10)], int64(len(data)%4))
		}
	})
}
