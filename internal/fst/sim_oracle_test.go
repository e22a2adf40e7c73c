package fst

import (
	"sort"

	"seqmine/internal/dict"
)

// The pointer-FST simulators below left the binary when every production
// kernel moved onto fst.Flat; they stay here as the differential oracles the
// flat walks are tested against, together with the slice-returning wrappers
// over the flat candidate enumeration that only tests call.

// enumerateLimited is the pointer-walking depth-first simulation over all
// accepting runs, invoking emit for every (possibly duplicate) non-empty
// candidate subsequence; returning false aborts the simulation. It is kept as
// the differential oracle the flat enumeration is tested against.
func (f *FST) enumerateLimited(T []dict.ItemID, sigma int64, emit func([]dict.ItemID) bool) {
	if len(T) == 0 {
		return
	}
	reach := f.AcceptMatrix(T)
	if !reach[0][f.initial] {
		return
	}
	prefix := make([]dict.ItemID, 0, len(T))
	stopped := false
	var rec func(pos, q int)
	rec = func(pos, q int) {
		if stopped {
			return
		}
		if pos == len(T) {
			if f.final[q] && len(prefix) > 0 {
				if !emit(prefix) {
					stopped = true
				}
			}
			return
		}
		t := T[pos]
		for _, tr := range f.trans[q] {
			if stopped {
				return
			}
			if !reach[pos+1][tr.To] || !tr.Label.Matches(f.dict, t) {
				continue
			}
			outs := tr.Label.Outputs(f.dict, t)
			if outs == nil {
				rec(pos+1, tr.To)
				continue
			}
			for _, w := range outs {
				if sigma > 0 && !f.dict.IsFrequent(w, sigma) {
					continue
				}
				prefix = append(prefix, w)
				rec(pos+1, tr.To)
				prefix = prefix[:len(prefix)-1]
				if stopped {
					return
				}
			}
		}
	}
	rec(0, f.initial)
}

// ForEachRun enumerates the accepting runs of the FST on T and calls fn for
// each. The callback receives the per-position output sets (nil = ε) and may
// return false to stop enumeration early. The slice passed to fn is reused
// between calls; callers must copy it if they retain it.
func (f *FST) ForEachRun(T []dict.ItemID, fn func(outputs [][]dict.ItemID) bool) {
	if len(T) == 0 {
		return
	}
	reach := f.AcceptMatrix(T)
	if !reach[0][f.initial] {
		return
	}
	outputs := make([][]dict.ItemID, len(T))
	stopped := false
	var rec func(pos, q int)
	rec = func(pos, q int) {
		if stopped {
			return
		}
		if pos == len(T) {
			if f.final[q] {
				if !fn(outputs) {
					stopped = true
				}
			}
			return
		}
		t := T[pos]
		for _, tr := range f.trans[q] {
			if stopped {
				return
			}
			if !reach[pos+1][tr.To] || !tr.Label.Matches(f.dict, t) {
				continue
			}
			outputs[pos] = tr.Label.Outputs(f.dict, t)
			rec(pos+1, tr.To)
			outputs[pos] = nil
		}
	}
	rec(0, f.initial)
}

// CountAcceptingRuns returns |R(T)|, the number of accepting runs of the FST
// on T. Mostly useful for analysis and tests.
func (f *FST) CountAcceptingRuns(T []dict.ItemID) int {
	n := 0
	f.ForEachRun(T, func([][]dict.ItemID) bool {
		n++
		return true
	})
	return n
}

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

// FinishMatrix is AcceptMatrix over ε-output transitions only: m[i][q] is true
// iff T[i:] can be consumed from q into a final state without producing
// output. The independent reference for the finish rows of Flat.Reach.
func (f *FST) FinishMatrix(T []dict.ItemID) [][]bool {
	n := len(T)
	m := make([][]bool, n+1)
	for i := range m {
		m[i] = make([]bool, f.numStates)
	}
	copy(m[n], f.final)
	for i := n - 1; i >= 0; i-- {
		for q := 0; q < f.numStates; q++ {
			for _, tr := range f.trans[q] {
				if !tr.Label.Captured && m[i+1][tr.To] && tr.Label.Matches(f.dict, T[i]) {
					m[i][q] = true
					break
				}
			}
		}
	}
	return m
}

// ProductiveMatrix is the definition the prod rows of Flat.Productive are
// held to, walked on the pointer FST: m[i][q] is true iff some path of
// ε-output transitions from state q at position i reaches an output
// transition whose target accepts the rest of T. The walk follows every such
// path depth first, remembering the coordinates it has settled.
func (f *FST) ProductiveMatrix(T []dict.ItemID) [][]bool {
	accept := f.AcceptMatrix(T)
	settled := map[[2]int]bool{}
	var walk func(pos, q int) bool
	walk = func(pos, q int) bool {
		if pos == len(T) {
			return false
		}
		if v, ok := settled[[2]int{pos, q}]; ok {
			return v
		}
		found := false
		for _, tr := range f.trans[q] {
			if !tr.Label.Matches(f.dict, T[pos]) {
				continue
			}
			if tr.Label.ProducesOutput() && accept[pos+1][tr.To] || !tr.Label.ProducesOutput() && walk(pos+1, tr.To) {
				found = true
				break
			}
		}
		settled[[2]int{pos, q}] = found
		return found
	}
	m := make([][]bool, len(T)+1)
	for i := range m {
		m[i] = make([]bool, f.numStates)
		for q := range m[i] {
			m[i][q] = walk(i, q)
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
