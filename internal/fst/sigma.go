package fst

import (
	"sort"

	"seqmine/internal/dict"
)

// SigmaView is the frequency-filtered view of an FST for one minimum support
// threshold: every output set a transition can produce is pre-truncated to its
// frequent items at construction time, so the per-transition "drop infrequent
// outputs" filtering of the map-side kernels (pivot search, candidate
// enumeration) costs nothing at simulation time. Fids are frequency-ordered,
// so the truncation is a prefix cut — output sets are sorted ascending and "is
// frequent" is one compare against dict.MaxFrequentFid — and the filtered sets
// share the FST's backing arrays, which keeps the view cheap to build.
//
// A SigmaView is immutable and safe for concurrent use; obtain one with
// FST.Sigma, which builds it once per (FST, sigma) pair and caches it.
type SigmaView struct {
	f     *FST
	limit dict.ItemID // largest frequent fid; every fid when sigma <= 0

	// anc holds, per input item, the filtered ancestor set used by
	// outAncestors transitions; nil when the FST has no such transition (or
	// when sigma <= 0, in which case the dictionary's sets are used directly).
	anc [][]dict.ItemID
	// upTo holds the filtered output sets of outUpTo transitions, indexed like
	// FST.upTo; nil entries fall through to the unfiltered sets.
	upTo [][][]dict.ItemID
}

// Sigma returns the frequency-filtered view of the FST for the given
// minimum support, building it on first use. sigma <= 0 yields the unfiltered
// view (every output item passes), matching the sigma <= 0 behaviour of
// EnumerateCandidates.
func (f *FST) Sigma(sigma int64) *SigmaView {
	if sigma <= 0 {
		sigma = 0
	}
	f.sigmaMu.Lock()
	defer f.sigmaMu.Unlock()
	if sv, ok := f.sigmaViews[sigma]; ok {
		return sv
	}
	sv := newSigmaView(f, sigma)
	if f.sigmaViews == nil {
		f.sigmaViews = make(map[int64]*SigmaView)
	}
	f.sigmaViews[sigma] = sv
	return sv
}

func newSigmaView(f *FST, sigma int64) *SigmaView {
	sv := &SigmaView{f: f, limit: ^dict.ItemID(0)}
	if sigma <= 0 {
		return sv
	}
	d := f.dict
	sv.limit = d.MaxFrequentFid(sigma)
	needAnc := false
	for tr := 0; tr < len(f.outKind); tr++ {
		switch f.outKind[tr] {
		case outAncestors:
			needAnc = true
		case outUpTo:
			sets := make([][]dict.ItemID, len(f.upTo[tr]))
			for t, set := range f.upTo[tr] {
				sets[t] = sv.truncate(set)
			}
			if sv.upTo == nil {
				sv.upTo = make([][][]dict.ItemID, len(f.outKind))
			}
			sv.upTo[tr] = sets
		}
	}
	if needAnc {
		vocab := d.Size()
		sv.anc = make([][]dict.ItemID, vocab+1)
		for t := dict.ItemID(1); int(t) <= vocab; t++ {
			sv.anc[t] = sv.truncate(d.Ancestors(t))
		}
	}
	return sv
}

// truncate cuts a sorted output set down to its frequent items: a prefix
// sharing the input's backing array.
func (sv *SigmaView) truncate(set []dict.ItemID) []dict.ItemID {
	cut := sort.Search(len(set), func(i int) bool { return set[i] > sv.limit })
	return set[:cut:cut]
}

// Frequent reports whether output item w survives the view's threshold.
func (sv *SigmaView) Frequent(w dict.ItemID) bool { return w <= sv.limit }

// OutputsFor returns the frequency-filtered output set of transition tr for
// input item t, in one of two forms: a single output item (set == nil) or a
// shared sorted set that must not be modified. ε transitions return
// (None, nil, true); ok is false when the transition produces output but no
// output item is frequent — such an edge cannot contribute Gσ candidates and
// must be skipped. tr must be one of FST.Firing(q, t).
func (sv *SigmaView) OutputsFor(tr int32, t dict.ItemID) (single dict.ItemID, set []dict.ItemID, ok bool) {
	f := sv.f
	switch f.outKind[tr] {
	case outNone:
		return dict.None, nil, true
	case outInput:
		if sv.Frequent(t) {
			return t, nil, true
		}
		return dict.None, nil, false
	case outConst:
		if w := f.item[tr]; sv.Frequent(w) {
			return w, nil, true
		}
		return dict.None, nil, false
	case outAncestors:
		var s []dict.ItemID
		if sv.anc != nil {
			s = sv.anc[t]
		} else {
			s = f.dict.Ancestors(t)
		}
		if len(s) == 0 {
			return dict.None, nil, false
		}
		return dict.None, s, true
	default: // outUpTo
		var s []dict.ItemID
		if sv.upTo != nil && sv.upTo[tr] != nil {
			s = sv.upTo[tr][t]
		} else {
			s = f.upTo[tr][t]
		}
		if len(s) == 0 {
			return dict.None, nil, false
		}
		return dict.None, s, true
	}
}
