package pivot

import (
	"reflect"
	"slices"
	"testing"

	"seqmine/internal/dict"
	"seqmine/internal/fst"
	"seqmine/internal/paperex"
)

// fuzzPatterns cover the output classes of the flat transition table: the
// running example (ancestor outputs), capture-any, generalize-up-to, const
// anchors and input copies.
var fuzzPatterns = []string{
	paperex.PatternExpression,
	"[.*(.)]{1,4}.*",
	".*(.^)[.{0,1}(.^)]{1,3}.*",
	".*(a1).*(b).*",
	"(A^).*",
}

// analyzeRuns is the run-enumeration pivot search, the "no grid" ablation of
// Fig. 10a: it computes K(T) by enumerating every accepting run of f on T
// (fst.FST.ForEachRun) and applying Theorem 1 to each run's frequent output
// sets. It shares the ⊕ fold with D-CAND's map but nothing with the grid, so
// it is the grid's reference for K(T).
func analyzeRuns(f *fst.FST, sigma int64, T []dict.ItemID) []dict.ItemID {
	var ms MergeScratch
	var pivots []dict.ItemID
	f.ForEachRun(T, sigma, func(outputs [][]dict.ItemID, _ int) bool {
		pivots = append(pivots, ms.MergeAll(outputs)...)
		return true
	})
	slices.Sort(pivots)
	return dedupSorted(pivots)
}

// referenceGrid is the pre-refactor position–state grid on the label-level
// graph, map backed: reachability and edge matching go label by label through
// fst.Label, K(i, q) sets live in per-state maps, frequent-output filtering
// runs per edge against the dictionary, and set union goes through fresh
// slices. It exists purely as the differential oracle for the arena-backed
// analyzeGrid and shares nothing with the step table it runs on.
func referenceGrid(f *fst.FST, sigma int64, T []dict.ItemID) (pivots []dict.ItemID, ranges map[dict.ItemID][2]int) {
	d := f.Dict()
	n := len(T)
	if n == 0 {
		return nil, nil
	}
	reach := make([][]bool, n+1)
	for i := n; i >= 0; i-- {
		reach[i] = make([]bool, f.NumStates())
		for q := range reach[i] {
			if i == n {
				reach[i][q] = f.IsFinal(q)
				continue
			}
			for _, tr := range f.Transitions(q) {
				reach[i][q] = reach[i][q] || reach[i+1][tr.To] && tr.Label.Matches(d, T[i])
			}
		}
	}
	init := f.Initial()
	if !reach[0][init] {
		return nil, nil
	}

	cur := map[int][]dict.ItemID{init: {dict.None}}
	stateChange := make([]bool, n)
	minOutput := make([]dict.ItemID, n)
	for i := 0; i < n; i++ {
		t := T[i]
		next := map[int][]dict.ItemID{}
		for q := 0; q < f.NumStates(); q++ {
			K, ok := cur[q]
			if !ok {
				continue
			}
			for _, tr := range f.Transitions(q) {
				to := tr.To
				if !reach[i+1][to] || !tr.Label.Matches(d, t) {
					continue
				}
				merged := K
				if tr.Label.Captured {
					var outs []dict.ItemID
					for _, w := range tr.Label.Outputs(d, t) {
						if sigma <= 0 || d.IsFrequent(w, sigma) {
							outs = append(outs, w)
						}
					}
					if len(outs) == 0 {
						continue // only infrequent outputs: skip the edge
					}
					if q != to {
						stateChange[i] = true
					}
					if minOutput[i] == dict.None || outs[0] < minOutput[i] {
						minOutput[i] = outs[0]
					}
					merged = oracleMerge(K, outs)
				} else if q != to {
					stateChange[i] = true
				}
				if prev, ok := next[to]; ok {
					next[to] = unionSorted(prev, merged)
				} else {
					next[to] = merged
				}
			}
		}
		cur = next
	}

	for q, K := range cur {
		if f.IsFinal(q) {
			pivots = append(pivots, dropEps(K)...)
		}
	}
	slices.Sort(pivots)
	pivots = dedupSorted(pivots)
	ranges = make(map[dict.ItemID][2]int, len(pivots))
	for _, k := range pivots {
		first, last := -1, -1
		for i := 0; i < n; i++ {
			if stateChange[i] || (minOutput[i] != dict.None && minOutput[i] <= k) {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		if first < 0 {
			first, last = 0, n-1
		}
		ranges[k] = [2]int{first, last}
	}
	return pivots, ranges
}

// FuzzPivotEquivalence derives a sequence from the fuzz input and cross-checks
// the arena-backed flat grid against the run enumeration (analyzeRuns) and the
// map-backed pre-refactor grid on every test pattern: the three must agree on
// K(T), and the two grids on every relevant-position range. Any divergence is
// a bug in the flat grid's edge walk, arena merging or relevance summary.
func FuzzPivotEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5}, int64(2))
	f.Add([]byte{}, int64(0))
	f.Add([]byte{9, 9, 9, 1, 1, 1, 2}, int64(4))
	d := paperex.Dict()
	fsts := make([]*fst.FST, len(fuzzPatterns))
	for i, pat := range fuzzPatterns {
		fsts[i] = fst.MustCompile(pat, d)
	}
	f.Fuzz(func(t *testing.T, data []byte, sigma int64) {
		if len(data) > 24 {
			data = data[:24]
		}
		if sigma < 0 || sigma > 8 {
			sigma = paperex.Sigma
		}
		T := make([]dict.ItemID, len(data))
		for i, c := range data {
			T[i] = dict.ItemID(int(c)%d.Size() + 1)
		}
		for i, fm := range fsts {
			a := NewSearcher(fm, sigma, Options{}).Analyze(T)
			wantPivots, wantRanges := referenceGrid(fm, sigma, T)
			if !reflect.DeepEqual(a.Pivots, wantPivots) && !(len(a.Pivots) == 0 && len(wantPivots) == 0) {
				t.Fatalf("%q σ=%d T=%v: grid pivots %v, reference %v",
					fuzzPatterns[i], sigma, T, a.Pivots, wantPivots)
			}
			runPivots := analyzeRuns(fm, sigma, T)
			if !reflect.DeepEqual(a.Pivots, runPivots) && !(len(a.Pivots) == 0 && len(runPivots) == 0) {
				t.Fatalf("%q σ=%d T=%v: grid pivots %v, run enumeration %v",
					fuzzPatterns[i], sigma, T, a.Pivots, runPivots)
			}
			for _, k := range a.Pivots {
				first, last := a.Range(k)
				if want := wantRanges[k]; first != want[0] || last != want[1] {
					t.Fatalf("%q σ=%d T=%v pivot %d: Range = (%d,%d), reference (%d,%d)",
						fuzzPatterns[i], sigma, T, k, first, last, want[0], want[1])
				}
			}
			// A non-pivot probe falls back to the full range on both sides.
			if first, last := a.Range(dict.None); first != 0 || last != len(T)-1 {
				t.Fatalf("%q σ=%d T=%v: Range(ε) = (%d,%d), want full range",
					fuzzPatterns[i], sigma, T, first, last)
			}
		}
	})
}

// oracleMerge is U ⊕ Q by its definition (Sec. V-A) for non-empty sorted
// sets, computed with the oracle's own union.
func oracleMerge(u, q []dict.ItemID) []dict.ItemID {
	var a, b []dict.ItemID
	for _, w := range u {
		if w >= q[0] {
			a = append(a, w)
		}
	}
	for _, w := range q {
		if w >= u[0] {
			b = append(b, w)
		}
	}
	return unionSorted(a, b)
}

// unionSorted merges two sorted fid slices into a sorted duplicate-free
// slice: the oracle's own union, independent of the searcher's.
func unionSorted(a, b []dict.ItemID) []dict.ItemID {
	out := make([]dict.ItemID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
