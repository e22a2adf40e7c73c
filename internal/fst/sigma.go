package fst

import (
	"sort"

	"seqmine/internal/dict"
)

// SigmaView is the frequency-filtered view of a Flat for one minimum support
// threshold: every output set a transition can produce is pre-truncated to its
// frequent items at construction time, so the per-transition "drop infrequent
// outputs" filtering of the map-side kernels (pivot search, candidate
// enumeration) costs nothing at simulation time. For frequency-sorted
// dictionaries (every Builder-built dictionary) the truncation is a prefix cut
// — output sets are sorted ascending and "is frequent" is one compare against
// dict.MaxFrequentFid — so the filtered sets share the Flat's backing arrays
// and the view itself is cheap to build.
//
// A SigmaView is immutable and safe for concurrent use; obtain one with
// Flat.Sigma, which builds it once per (Flat, sigma) pair and caches it.
type SigmaView struct {
	fl    *Flat
	all   bool        // sigma <= 0: nothing is filtered
	byFid bool        // frequency-sorted dict: frequent iff fid <= limit
	limit dict.ItemID // largest frequent fid (byFid only)
	sigma int64

	// anc holds, per input item, the filtered ancestor set used by
	// outAncestors transitions; nil when the FST has no such transition (or
	// when all is set, in which case the dictionary's sets are used directly).
	anc [][]dict.ItemID
	// upTo holds the filtered output sets of outUpTo transitions, indexed like
	// Flat.upTo; nil entries fall through to the unfiltered sets.
	upTo [][][]dict.ItemID
}

// Sigma returns the frequency-filtered view of the flat FST for the given
// minimum support, building it on first use. sigma <= 0 yields the unfiltered
// view (every output item passes), matching the sigma <= 0 behaviour of
// EnumerateCandidates.
func (fl *Flat) Sigma(sigma int64) *SigmaView {
	if sigma <= 0 {
		sigma = 0
	}
	fl.sigmaMu.Lock()
	defer fl.sigmaMu.Unlock()
	if sv, ok := fl.sigmaViews[sigma]; ok {
		return sv
	}
	sv := newSigmaView(fl, sigma)
	if fl.sigmaViews == nil {
		fl.sigmaViews = make(map[int64]*SigmaView)
	}
	fl.sigmaViews[sigma] = sv
	return sv
}

func newSigmaView(fl *Flat, sigma int64) *SigmaView {
	sv := &SigmaView{fl: fl, sigma: sigma}
	if sigma <= 0 {
		sv.all = true
		return sv
	}
	d := fl.dict
	if d.FrequencySorted() {
		sv.byFid = true
		sv.limit = d.MaxFrequentFid(sigma)
	}
	needAnc := false
	for tr := 0; tr < len(fl.outKind); tr++ {
		switch fl.outKind[tr] {
		case outAncestors:
			needAnc = true
		case outUpTo:
			sets := make([][]dict.ItemID, len(fl.upTo[tr]))
			for t, set := range fl.upTo[tr] {
				sets[t] = sv.truncate(set)
			}
			if sv.upTo == nil {
				sv.upTo = make([][][]dict.ItemID, len(fl.outKind))
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

// truncate filters a sorted output set down to its frequent items. For
// frequency-sorted dictionaries this is a prefix cut sharing the input's
// backing array; otherwise a filtered copy is built (once, at view build).
func (sv *SigmaView) truncate(set []dict.ItemID) []dict.ItemID {
	if set == nil {
		return nil
	}
	if sv.byFid {
		limit := sv.limit
		cut := sort.Search(len(set), func(i int) bool { return set[i] > limit })
		return set[:cut:cut]
	}
	var out []dict.ItemID
	for _, w := range set {
		if sv.fl.dict.IsFrequent(w, sv.sigma) {
			out = append(out, w)
		}
	}
	return out
}

// Frequent reports whether output item w survives the view's threshold.
func (sv *SigmaView) Frequent(w dict.ItemID) bool {
	if sv.all {
		return true
	}
	if sv.byFid {
		return w <= sv.limit
	}
	return sv.fl.dict.IsFrequent(w, sv.sigma)
}

// OutputsFor returns the frequency-filtered output set of transition tr for
// input item t, in one of two forms: a single output item (set == nil) or a
// shared sorted set that must not be modified. ε transitions return
// (None, nil, true); ok is false when the transition produces output but no
// output item is frequent — such an edge cannot contribute Gσ candidates and
// must be skipped. tr must be one of Flat.Firing(q, t).
func (sv *SigmaView) OutputsFor(tr int32, t dict.ItemID) (single dict.ItemID, set []dict.ItemID, ok bool) {
	fl := sv.fl
	switch fl.outKind[tr] {
	case outNone:
		return dict.None, nil, true
	case outInput:
		if sv.Frequent(t) {
			return t, nil, true
		}
		return dict.None, nil, false
	case outConst:
		if w := fl.item[tr]; sv.Frequent(w) {
			return w, nil, true
		}
		return dict.None, nil, false
	case outAncestors:
		var s []dict.ItemID
		if sv.anc != nil {
			s = sv.anc[t]
		} else {
			s = fl.dict.Ancestors(t)
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
			s = fl.upTo[tr][t]
		}
		if len(s) == 0 {
			return dict.None, nil, false
		}
		return dict.None, s, true
	}
}
