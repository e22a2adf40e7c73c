package fst

import (
	"sort"

	"seqmine/internal/dict"
)

// AcceptMatrix computes, for the input sequence T, which position–state pairs
// can still reach acceptance: m[i][q] is true iff there is a way to consume
// the remaining items T[i:] starting in state q and end in a final state.
// m has len(T)+1 rows.
func (f *FST) AcceptMatrix(T []dict.ItemID) [][]bool {
	n := len(T)
	m := make([][]bool, n+1)
	for i := range m {
		m[i] = make([]bool, f.numStates)
	}
	copy(m[n], f.final)
	for i := n - 1; i >= 0; i-- {
		t := T[i]
		for q := 0; q < f.numStates; q++ {
			for _, tr := range f.trans[q] {
				if m[i+1][tr.To] && tr.Label.Matches(f.dict, t) {
					m[i][q] = true
					break
				}
			}
		}
	}
	return m
}

// Accepts reports whether the FST has at least one accepting run for T, i.e.
// whether T matches the subsequence constraint at all.
func (f *FST) Accepts(T []dict.ItemID) bool {
	if len(T) == 0 {
		return f.final[f.initial]
	}
	return f.AcceptMatrix(T)[0][f.initial]
}

// EnumerateCandidates returns the distinct candidate subsequences generated by
// the accepting runs of the FST on T. For sigma > 0, output items with
// document frequency below sigma are excluded, so the result is Gσπ(T); for
// sigma <= 0 the result is the full Gπ(T). The empty subsequence is never
// reported. Candidates are returned in lexicographic fid order. The
// enumeration runs on the flat transition table (Flat.ForEachDistinctCandidate).
func (f *FST) EnumerateCandidates(T []dict.ItemID, sigma int64) [][]dict.ItemID {
	var out [][]dict.ItemID
	f.Flatten().ForEachDistinctCandidate(T, sigma, func(cand []dict.ItemID) bool {
		out = append(out, append([]dict.ItemID(nil), cand...))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return lessSeq(out[i], out[j]) })
	return out
}

// CountCandidates counts the distinct candidate subsequences of T (see
// EnumerateCandidates) without keeping the sequences themselves.
func (f *FST) CountCandidates(T []dict.ItemID, sigma int64) int {
	n, _ := f.CountCandidatesUpTo(T, sigma, 0)
	return n
}

// CountCandidatesUpTo counts distinct candidate subsequences but stops once
// limit distinct candidates have been seen (limit <= 0 means unlimited). The
// second result reports whether counting was truncated. Used to estimate
// candidate statistics for very loose constraints (Table IV of the paper).
func (f *FST) CountCandidatesUpTo(T []dict.ItemID, sigma int64, limit int) (int, bool) {
	n := 0
	truncated := false
	f.Flatten().ForEachDistinctCandidate(T, sigma, func([]dict.ItemID) bool {
		n++
		if limit > 0 && n >= limit {
			truncated = true
			return false
		}
		return true
	})
	return n, truncated
}

// lessSeq orders item sequences lexicographically by fid with length as the
// tie breaker.
func lessSeq(a, b []dict.ItemID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
