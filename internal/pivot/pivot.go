// Package pivot implements the pivot search of D-SEQ (Sec. V-A of the paper):
// given an input sequence T and a compiled subsequence constraint, it
// determines K(T) — the pivot items of all candidate subsequences in Gσπ(T) —
// without enumerating the candidates, using the pivot-merge operator ⊕
// (Theorem 1) and a position–state grid (memoized FST simulation). It also
// determines the first and last relevant positions per pivot item, which are
// the basis of the sequence rewriting ρk(T) of Sec. V-B.
//
// The grid runs entirely on the flattened FST form (fst.Flat): reachability is
// the bitset accept matrix of fst.Flat.Reach, each coordinate walks only the
// transitions that fire on its item (fst.Flat.Firing), frequent-output
// filtering is precomputed per (FST, σ) in an
// fst.SigmaView, and the per-state pivot sets K(i, q) live as (offset, length)
// regions of one pooled arena — steady-state analysis allocates only the
// Analysis result itself.
package pivot

import (
	"slices"
	"sync"

	"seqmine/internal/dict"
	"seqmine/internal/fst"
)

// Merge implements the commutative and associative pivot-merge operator ⊕ of
// Sec. V-A:
//
//	U ⊕ Q = { ω ∈ U | ω ≥ min(Q) } ∪ { ω ∈ Q | ω ≥ min(U) }
//
// Sets are sorted ascending slices of fids; dict.None (0) represents ε and is
// smaller than every item. Empty input sets are treated as {ε}. The result is
// sorted and duplicate free. Because the inputs are sorted, each side's
// filtered subset is a suffix, so the merge is a single linear union pass.
func Merge(u, q []dict.ItemID) []dict.ItemID {
	minU, minQ := dict.None, dict.None
	if len(u) > 0 {
		minU = u[0]
	}
	if len(q) > 0 {
		minQ = q[0]
	}
	return unionSorted(suffixFrom(u, minQ), suffixFrom(q, minU))
}

// suffixFrom returns the suffix of the sorted set s whose items are >= min.
func suffixFrom(s []dict.ItemID, min dict.ItemID) []dict.ItemID {
	i := 0
	for i < len(s) && s[i] < min {
		i++
	}
	return s[i:]
}

func dedupSorted(s []dict.ItemID) []dict.ItemID {
	if len(s) < 2 {
		return s
	}
	j := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[j-1] {
			s[j] = s[i]
			j++
		}
	}
	return s[:j]
}

// MergeAll folds ⊕ over a run's output sets and returns its pivot items K(r)
// (Theorem 1), with ε removed.
func MergeAll(sets ...[]dict.ItemID) []dict.ItemID {
	acc := []dict.ItemID{dict.None}
	for _, s := range sets {
		if len(s) == 0 {
			s = []dict.ItemID{dict.None}
		}
		acc = Merge(acc, s)
	}
	return dropEps(acc)
}

func dropEps(s []dict.ItemID) []dict.ItemID {
	if len(s) > 0 && s[0] == dict.None {
		return s[1:]
	}
	return s
}

// epsSet is the {ε} singleton empty input sets stand for.
var epsSet = []dict.ItemID{dict.None}

// MergeScratch is caller-owned working memory for MergeAll: the fold's
// accumulator double-buffer, reused across calls so a hot loop (the D-CAND
// run enumeration calls MergeAll once per accepting run) allocates nothing
// once the buffers are warm.
type MergeScratch struct {
	a, b []dict.ItemID
}

// MergeAll is pivot.MergeAll computed in the scratch's reused buffers. The
// returned slice aliases the scratch and is valid until the next call.
func (ms *MergeScratch) MergeAll(sets [][]dict.ItemID) []dict.ItemID {
	acc := append(ms.a[:0], dict.None)
	buf := ms.b[:0]
	for _, s := range sets {
		if len(s) == 0 {
			s = epsSet
		}
		buf = AppendMerge(buf[:0], acc, s)
		acc, buf = buf, acc
	}
	ms.a, ms.b = acc, buf
	return dropEps(acc)
}

// AppendMerge appends U ⊕ Q to dst and returns the extended slice. u and q
// must be non-empty sorted sets, with ε spelled dict.None. dst may be an
// append-only arena that u lives in: appending never touches existing
// elements, and a reallocation leaves u intact in the old backing array.
func AppendMerge(dst, u, q []dict.ItemID) []dict.ItemID {
	return appendUnion(dst, suffixFrom(u, q[0]), suffixFrom(q, u[0]))
}

// appendUnion appends the sorted duplicate-free union of a and b to dst. dst
// must not overlap the elements of a or b.
func appendUnion(dst, a, b []dict.ItemID) []dict.ItemID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// Options configures a Searcher.
type Options struct {
	// UseGrid enables the position–state grid (memoized simulation). When
	// false, pivot items are computed by enumerating all accepting runs and
	// applying Theorem 1 per run — the "no grid" ablation of Fig. 10a. The
	// grid is also required for computing relevant-position ranges; without
	// it Rewrite returns the input unchanged.
	UseGrid bool
}

// DefaultOptions enables the grid.
func DefaultOptions() Options { return Options{UseGrid: true} }

// Searcher performs pivot search for one compiled constraint and threshold.
// It is safe for concurrent use.
type Searcher struct {
	flat  *fst.Flat
	sv    *fst.SigmaView
	sigma int64
	opts  Options
}

// NewSearcher returns a Searcher for the constraint and minimum support.
func NewSearcher(f *fst.FST, sigma int64, opts Options) *Searcher {
	fl := f.Flatten()
	return &Searcher{flat: fl, sv: fl.Sigma(sigma), sigma: sigma, opts: opts}
}

// Analysis is the result of analyzing one input sequence.
type Analysis struct {
	// Pivots is K(T): the pivot items of the candidate subsequences in
	// Gσπ(T), sorted ascending.
	Pivots []dict.ItemID

	n       int
	haveRel bool
	// relFirst/relLast hold the relevant-position range per pivot, indexed
	// parallel to Pivots.
	relFirst []int32
	relLast  []int32
}

// Range returns the first and last relevant position (0-based, inclusive) of
// the analyzed sequence for pivot k. When relevance information is not
// available (grid disabled or k not a pivot), it returns the full range.
func (a *Analysis) Range(k dict.ItemID) (first, last int) {
	if !a.haveRel {
		return 0, a.n - 1
	}
	i, ok := slices.BinarySearch(a.Pivots, k)
	if !ok || i >= len(a.relFirst) {
		return 0, a.n - 1
	}
	return int(a.relFirst[i]), int(a.relLast[i])
}

// Analyze computes K(T) and the per-pivot relevant-position ranges for T.
func (s *Searcher) Analyze(T []dict.ItemID) *Analysis {
	if s.opts.UseGrid {
		return s.analyzeGrid(T)
	}
	return s.analyzeRuns(T)
}

// analyzeRuns computes K(T) by enumerating all accepting runs (no grid) and
// applying Theorem 1 to each run's frequent output sets.
func (s *Searcher) analyzeRuns(T []dict.ItemID) *Analysis {
	a := &Analysis{n: len(T)}
	var ms MergeScratch
	s.flat.ForEachRun(T, s.sigma, func(outputs [][]dict.ItemID, _ int) bool {
		a.Pivots = append(a.Pivots, ms.MergeAll(outputs)...)
		return true
	})
	slices.Sort(a.Pivots)
	a.Pivots = dedupSorted(a.Pivots)
	return a
}

// gridScratch is the pooled per-call working memory of analyzeGrid: the bitset
// accept matrix, the per-state K(i, q) regions of the current and next grid
// column (offset and length into one append-only arena; offset -1 = inactive
// coordinate), and the per-position relevance summary. The arena is append
// only within a call, so regions handed out earlier stay valid while new
// merged sets are written behind them.
type gridScratch struct {
	reach []uint64
	arena []dict.ItemID

	curOff, curLen   []int32
	nextOff, nextLen []int32

	stateChange []bool
	minOutput   []dict.ItemID
	pivots      []dict.ItemID
	one         [1]dict.ItemID
}

var gridPool = sync.Pool{New: func() any { return new(gridScratch) }}

func (sc *gridScratch) prepare(n, words, numStates int) {
	need := (n + 1) * words
	sc.reach = slices.Grow(sc.reach[:0], need)[:need]
	sc.arena = sc.arena[:0]
	if cap(sc.curOff) < numStates {
		sc.curOff = make([]int32, numStates)
		sc.curLen = make([]int32, numStates)
		sc.nextOff = make([]int32, numStates)
		sc.nextLen = make([]int32, numStates)
	}
	sc.curOff = sc.curOff[:numStates]
	sc.curLen = sc.curLen[:numStates]
	sc.nextOff = sc.nextOff[:numStates]
	sc.nextLen = sc.nextLen[:numStates]
	for q := 0; q < numStates; q++ {
		sc.curOff[q] = -1
		sc.nextOff[q] = -1
	}
	if cap(sc.stateChange) < n {
		sc.stateChange = make([]bool, n)
		sc.minOutput = make([]dict.ItemID, n)
	}
	sc.stateChange = sc.stateChange[:n]
	sc.minOutput = sc.minOutput[:n]
	clear(sc.stateChange)
	clear(sc.minOutput)
	sc.pivots = sc.pivots[:0]
}

// mergeInto appends the region for U ⊕ outs to the arena, where U is the arena
// region (off, n) and outs is a non-empty sorted frequent output set.
func (sc *gridScratch) mergeInto(off, n int32, outs []dict.ItemID) (int32, int32) {
	u := sc.arena[off : off+n]
	minU := dict.None
	if len(u) > 0 {
		minU = u[0]
	}
	return sc.unionInto(suffixFrom(u, outs[0]), suffixFrom(outs, minU))
}

// unionInto appends the sorted duplicate-free union of a and b to the arena
// and returns the new region. Reading a and b while appending is safe even
// when they alias the arena: the arena is append only, so a reallocation
// leaves the source regions intact in the old backing array.
func (sc *gridScratch) unionInto(a, b []dict.ItemID) (int32, int32) {
	start := int32(len(sc.arena))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			sc.arena = append(sc.arena, a[i])
			i++
		case a[i] > b[j]:
			sc.arena = append(sc.arena, b[j])
			j++
		default:
			sc.arena = append(sc.arena, a[i])
			i++
			j++
		}
	}
	sc.arena = append(sc.arena, a[i:]...)
	sc.arena = append(sc.arena, b[j:]...)
	return start, int32(len(sc.arena)) - start
}

// analyzeGrid computes K(T) with the position–state grid: one forward pass
// over the coordinates that lie on accepting runs, maintaining the pivot sets
// K(i, q) and the relevance information per position. The pass walks the flat
// transition table against the bitset accept matrix and keeps every K(i, q)
// as a region of the pooled arena; ε edges propagate their source region
// without copying.
func (s *Searcher) analyzeGrid(T []dict.ItemID) *Analysis {
	a := &Analysis{n: len(T), haveRel: true}
	n := len(T)
	if n == 0 {
		return a
	}
	fl := s.flat
	words := fl.Words()
	numStates := fl.NumStates()
	sc := gridPool.Get().(*gridScratch)
	sc.prepare(n, words, numStates)
	init := fl.Initial()
	if !fl.Reach(T, sc.reach, nil) {
		gridPool.Put(sc)
		return a
	}

	sc.arena = append(sc.arena, dict.None)
	sc.curOff[init], sc.curLen[init] = 0, 1

	for i := 0; i < n; i++ {
		t := T[i]
		next := sc.reach[(i+1)*words:]
		for q := 0; q < numStates; q++ {
			ko, kl := sc.curOff[q], sc.curLen[q]
			if ko < 0 {
				continue
			}
			for _, tr := range fl.Firing(q, t) {
				to := int(fl.To(tr))
				if next[uint(to)>>6]&(1<<(uint(to)&63)) == 0 {
					continue
				}
				single, set, ok := s.sv.OutputsFor(tr, t)
				if !ok {
					// Only infrequent outputs: edge cannot contribute Gσ
					// candidates.
					continue
				}
				if q != to {
					sc.stateChange[i] = true
				}
				if single != dict.None {
					sc.one[0] = single
					set = sc.one[:]
				}
				mo, ml := ko, kl
				if set != nil {
					if sc.minOutput[i] == dict.None || set[0] < sc.minOutput[i] {
						sc.minOutput[i] = set[0]
					}
					mo, ml = sc.mergeInto(ko, kl, set)
				}
				if sc.nextOff[to] < 0 {
					sc.nextOff[to], sc.nextLen[to] = mo, ml
				} else {
					uo, ul := sc.nextOff[to], sc.nextLen[to]
					sc.nextOff[to], sc.nextLen[to] =
						sc.unionInto(sc.arena[uo:uo+ul], sc.arena[mo:mo+ml])
				}
			}
		}
		sc.curOff, sc.nextOff = sc.nextOff, sc.curOff
		sc.curLen, sc.nextLen = sc.nextLen, sc.curLen
		for q := 0; q < numStates; q++ {
			sc.nextOff[q] = -1
		}
	}

	for q := 0; q < numStates; q++ {
		if sc.curOff[q] < 0 || !fl.IsFinal(q) {
			continue
		}
		region := sc.arena[sc.curOff[q] : sc.curOff[q]+sc.curLen[q]]
		sc.pivots = append(sc.pivots, dropEps(region)...)
	}
	slices.Sort(sc.pivots)
	pivots := dedupSorted(sc.pivots)
	if m := len(pivots); m > 0 {
		a.Pivots = make([]dict.ItemID, m)
		copy(a.Pivots, pivots)
		// Relevant-position ranges per pivot: position i is relevant for pivot
		// k if an accepting-run edge at i changes state or can output a
		// frequent item <= k. Both range slices share one backing array.
		rel := make([]int32, 2*m)
		a.relFirst, a.relLast = rel[:m:m], rel[m:]
		for idx, k := range a.Pivots {
			first, last := -1, -1
			for i := 0; i < n; i++ {
				if sc.stateChange[i] || (sc.minOutput[i] != dict.None && sc.minOutput[i] <= k) {
					if first < 0 {
						first = i
					}
					last = i
				}
			}
			if first < 0 {
				first, last = 0, n-1
			}
			a.relFirst[idx] = int32(first)
			a.relLast[idx] = int32(last)
		}
	}
	gridPool.Put(sc)
	return a
}

// unionSorted merges two sorted fid slices into a sorted duplicate-free slice.
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
	out = append(out, b[j:]...)
	return out
}

// Rewrite returns ρk(T): the input sequence restricted to the range between
// the first and last relevant position for pivot k (Sec. V-B). The result
// aliases T's backing array.
//
// The tail is cut only when the FST's final states absorb any input
// (fst.Flat.FinalsAbsorb). Otherwise a run on the cut sequence may end in a
// final state that cannot consume the cut positions, and the partition would
// count a candidate that T does not have.
func (s *Searcher) Rewrite(T []dict.ItemID, a *Analysis, k dict.ItemID) []dict.ItemID {
	if a == nil || !a.haveRel || len(T) == 0 {
		return T
	}
	first, last := a.Range(k)
	if first < 0 || last >= len(T) || first > last {
		return T
	}
	if !s.flat.FinalsAbsorb() {
		return T[first:]
	}
	return T[first : last+1]
}
