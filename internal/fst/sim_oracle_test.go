package fst

import "seqmine/internal/dict"

// The pointer-FST simulators below left the binary when every production
// kernel moved onto fst.Flat; they stay here as the differential oracles the
// flat walks are tested against.

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
