package fst_test

import (
	"math/rand"
	"reflect"
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

// finishMatrixRef computes the ε-output-only backward reachability matrix
// with the pointer representation: bit [i][q] iff T[i:] can be consumed from
// q into a final state using only transitions that produce no output. It is
// the independent reference for Flat.FinishBits.
func finishMatrixRef(f *fst.FST, T []dict.ItemID) [][]bool {
	d := f.Dict()
	n := len(T)
	m := make([][]bool, n+1)
	for i := range m {
		m[i] = make([]bool, f.NumStates())
	}
	for q := 0; q < f.NumStates(); q++ {
		m[n][q] = f.IsFinal(q)
	}
	for i := n - 1; i >= 0; i-- {
		for q := 0; q < f.NumStates(); q++ {
			for _, tr := range f.Transitions(q) {
				if tr.Label.ProducesOutput() {
					continue
				}
				if m[i+1][tr.To] && tr.Label.Matches(d, T[i]) {
					m[i][q] = true
					break
				}
			}
		}
	}
	return m
}

func bitsRow(dst []uint64, words, i, q int) bool {
	return dst[i*words+q>>6]&(1<<(uint(q)&63)) != 0
}

// TestFlatEquivalence cross-checks every Flat operation against the pointer
// FST it was flattened from, on random sequences: the bitset accept matrix
// against AcceptMatrix, the ε-only finish matrix against an independent
// reference, the two-row CanAccept prefilter against Accepts, and per-
// transition matching and outputs against the Label methods.
func TestFlatEquivalence(t *testing.T) {
	d := paperex.Dict()
	rng := rand.New(rand.NewSource(11))
	for _, pat := range flatTestPatterns {
		f := fst.MustCompile(pat, d)
		flat := f.Flatten()
		if flat.NumStates() != f.NumStates() || flat.Initial() != f.Initial() ||
			flat.NumTransitions() != f.NumTransitions() || flat.Dict() != d {
			t.Fatalf("%q: flat shape differs from the FST", pat)
		}
		for q := 0; q < f.NumStates(); q++ {
			if flat.IsFinal(q) != f.IsFinal(q) {
				t.Fatalf("%q: IsFinal(%d) mismatch", pat, q)
			}
			lo, hi := flat.TransitionsOf(q)
			trans := f.Transitions(q)
			if int(hi-lo) != len(trans) {
				t.Fatalf("%q: state %d has %d flat transitions, want %d", pat, q, hi-lo, len(trans))
			}
			for i, tr := range trans {
				fi := int(lo) + i
				if int(flat.To(fi)) != tr.To {
					t.Fatalf("%q: transition target mismatch at state %d", pat, q)
				}
				if flat.ProducesOutput(fi) != tr.Label.ProducesOutput() {
					t.Fatalf("%q: ProducesOutput mismatch at state %d", pat, q)
				}
				for item := dict.ItemID(1); int(item) <= d.Size(); item++ {
					if flat.Matches(fi, item) != tr.Label.Matches(d, item) {
						t.Fatalf("%q: Matches(%d, %v) mismatch", pat, fi, item)
					}
					if !tr.Label.Matches(d, item) {
						continue
					}
					want := tr.Label.Outputs(d, item)
					single, set := flat.OutputsFor(fi, item)
					var got []dict.ItemID
					switch {
					case single != dict.None:
						got = []dict.ItemID{single}
					default:
						got = set
					}
					if len(got) != len(want) {
						t.Fatalf("%q: OutputsFor(%d, %v) = %v, want %v", pat, fi, item, got, want)
					}
					for j := range got {
						if got[j] != want[j] {
							t.Fatalf("%q: OutputsFor(%d, %v) = %v, want %v", pat, fi, item, got, want)
						}
					}
				}
			}
		}

		for trial := 0; trial < 50; trial++ {
			T := make([]dict.ItemID, rng.Intn(12))
			for j := range T {
				T[j] = dict.ItemID(rng.Intn(d.Size()) + 1)
			}
			words := flat.Words()
			accept := make([]uint64, (len(T)+1)*words)
			flat.AcceptBits(T, accept)
			ref := f.AcceptMatrix(T)
			for i := 0; i <= len(T); i++ {
				for q := 0; q < f.NumStates(); q++ {
					if bitsRow(accept, words, i, q) != ref[i][q] {
						t.Fatalf("%q: AcceptBits[%d][%d] = %v, want %v (T=%v)",
							pat, i, q, !ref[i][q], ref[i][q], T)
					}
				}
			}
			finish := make([]uint64, (len(T)+1)*words)
			flat.FinishBits(T, finish)
			fref := finishMatrixRef(f, T)
			for i := 0; i <= len(T); i++ {
				for q := 0; q < f.NumStates(); q++ {
					if bitsRow(finish, words, i, q) != fref[i][q] {
						t.Fatalf("%q: FinishBits[%d][%d] = %v, want %v (T=%v)",
							pat, i, q, !fref[i][q], fref[i][q], T)
					}
				}
			}
			if got, want := flat.CanAccept(T), f.Accepts(T); got != want {
				t.Fatalf("%q: CanAccept(%v) = %v, want %v", pat, T, got, want)
			}
			for _, sigma := range []int64{0, 2, 4} {
				checkRuns(t, pat, f, T, sigma)
			}
		}
	}
}

// checkRuns asserts runs ≡ runs: the flat walker must report, in the same
// order, exactly the pointer-FST oracle's accepting runs with ε positions
// dropped, every output set cut down to its items frequent at sigma and runs
// that lose a whole set removed. shared must never overstate the prefix a
// run has in common with the one reported before it.
func checkRuns(t *testing.T, pat string, f *fst.FST, T []dict.ItemID, sigma int64) {
	t.Helper()
	d := f.Dict()
	var want [][][]dict.ItemID
	f.ForEachRun(T, func(outputs [][]dict.ItemID) bool {
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
	f.Flatten().ForEachRun(T, sigma, func(outputs [][]dict.ItemID, shared int) bool {
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
		t.Fatalf("%q sigma %d: flat runs %v, pointer runs %v (T=%v)", pat, sigma, got, want, T)
	}
	// Early stop: the walk ends with the call that returns false.
	if len(want) > 1 {
		calls := 0
		f.Flatten().ForEachRun(T, sigma, func([][]dict.ItemID, int) bool { calls++; return false })
		if calls != 1 {
			t.Fatalf("%q: walk continued for %d calls after fn returned false", pat, calls)
		}
	}
}

// TestFlattenCached checks that Flatten builds once and returns the cached
// Flat on every later call.
func TestFlattenCached(t *testing.T) {
	f := fst.MustCompile(paperex.PatternExpression, paperex.Dict())
	if f.Flatten() != f.Flatten() {
		t.Fatal("Flatten must return the same cached Flat")
	}
}

// TestCanAcceptEmpty pins the empty-sequence semantics of the prefilter: an
// empty input is acceptable iff the initial state is final, matching Accepts.
func TestCanAcceptEmpty(t *testing.T) {
	d := paperex.Dict()
	for _, pat := range []string{paperex.PatternExpression, ".*"} {
		f := fst.MustCompile(pat, d)
		if got, want := f.Flatten().CanAccept(nil), f.Accepts(nil); got != want {
			t.Errorf("%q: CanAccept(nil) = %v, want %v", pat, got, want)
		}
	}
}

// FuzzFlatEquivalence derives a sequence from the fuzz input and cross-checks
// the flattened simulation primitives against the pointer FST on every test
// pattern: the prefilter must agree with Accepts and the bitset accept matrix
// with AcceptMatrix, and the flat run walker must enumerate the pointer FST's
// runs (on a prefix of the input: loose patterns have a run per position
// subset). Any divergence is a miscompiled flat table.
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
			flat := fm.Flatten()
			if got, want := flat.CanAccept(T), fm.Accepts(T); got != want {
				t.Fatalf("%q: CanAccept = %v, Accepts = %v (T=%v)", flatTestPatterns[i], got, want, T)
			}
			words := flat.Words()
			accept := make([]uint64, (len(T)+1)*words)
			flat.AcceptBits(T, accept)
			ref := fm.AcceptMatrix(T)
			for pos := 0; pos <= len(T); pos++ {
				for q := 0; q < fm.NumStates(); q++ {
					if bitsRow(accept, words, pos, q) != ref[pos][q] {
						t.Fatalf("%q: AcceptBits[%d][%d] disagrees with AcceptMatrix (T=%v)",
							flatTestPatterns[i], pos, q, T)
					}
				}
			}
			checkRuns(t, flatTestPatterns[i], fm, T[:min(len(T), 10)], int64(len(data)%4))
		}
	})
}
