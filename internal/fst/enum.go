package fst

import (
	"slices"
	"sync"

	"seqmine/internal/dict"
)

// enumScratch is the pooled working memory of the DFS walks
// (ForEachDistinctCandidate, ForEachRun): the reachability bitset rows, the
// DFS prefix buffer, the per-sequence dedup table and the run walker's output
// stack. The dedup table is an open-addressing hash set over item slices
// stored back-to-back in one arena, with generation-stamped slots so clearing
// it between sequences is a counter increment, not a memset.
type enumScratch struct {
	reach  []uint64
	prefix []dict.ItemID

	// ForEachRun: the output sets of the current run prefix (ε positions
	// skipped) and the backing store that turns single outputs into sets.
	sets [][]dict.ItemID
	ones []dict.ItemID

	arena   []dict.ItemID
	entries []enumEntry
	slotGen []uint32
	slotVal []int32
	gen     uint32
}

// enumEntry locates one interned candidate in the arena.
type enumEntry struct {
	off, n int32
	hash   uint64
}

var enumPool = sync.Pool{New: func() any { return new(enumScratch) }}

// reset prepares the scratch for a new input sequence: drop interned
// candidates and invalidate every slot by bumping the generation.
func (sc *enumScratch) reset() {
	sc.arena = sc.arena[:0]
	sc.entries = sc.entries[:0]
	sc.prefix = sc.prefix[:0]
	sc.gen++
	if sc.gen == 0 { // wrapped: stale stamps could collide, start over
		for i := range sc.slotGen {
			sc.slotGen[i] = 0
		}
		sc.gen = 1
	}
	if len(sc.slotVal) == 0 {
		sc.slotGen = make([]uint32, 64)
		sc.slotVal = make([]int32, 64)
	}
}

// seen interns cand into the dedup table, reporting whether it was already
// present. The candidate's items are copied into the arena on first sight.
func (sc *enumScratch) seen(cand []dict.ItemID) bool {
	h := dict.HashItems(cand)
	mask := uint64(len(sc.slotVal) - 1)
	i := h & mask
	for {
		if sc.slotGen[i] != sc.gen {
			sc.insertAt(i, h, cand)
			return false
		}
		e := &sc.entries[sc.slotVal[i]]
		if e.hash == h && slices.Equal(sc.arena[e.off:e.off+e.n], cand) {
			return true
		}
		i = (i + 1) & mask
	}
}

func (sc *enumScratch) insertAt(slot uint64, h uint64, cand []dict.ItemID) {
	sc.slotGen[slot] = sc.gen
	sc.slotVal[slot] = int32(len(sc.entries))
	off := int32(len(sc.arena))
	sc.arena = append(sc.arena, cand...)
	sc.entries = append(sc.entries, enumEntry{off: off, n: int32(len(cand)), hash: h})
	if 4*len(sc.entries) >= 3*len(sc.slotVal) {
		sc.grow()
	}
}

// grow doubles the slot table and reinserts the live entries.
func (sc *enumScratch) grow() {
	size := 2 * len(sc.slotVal)
	sc.slotGen = make([]uint32, size)
	sc.slotVal = make([]int32, size)
	sc.gen = 1
	mask := uint64(size - 1)
	for idx, e := range sc.entries {
		i := e.hash & mask
		for sc.slotGen[i] == sc.gen {
			i = (i + 1) & mask
		}
		sc.slotGen[i] = sc.gen
		sc.slotVal[i] = int32(idx)
	}
}

// enumWalk is the explicit state of one candidate enumeration, kept in a
// struct so the recursion shares it without per-call closure allocations.
type enumWalk struct {
	f       *FST
	sv      *SigmaView
	T       []dict.ItemID
	sc      *enumScratch
	emit    func([]dict.ItemID) bool
	words   int
	stopped bool
}

// ForEachDistinctCandidate enumerates the distinct candidate subsequences
// generated by the accepting runs of the FST on T — Gσπ(T) for sigma > 0,
// the full Gπ(T) otherwise — invoking emit once per candidate in DFS discovery
// order. The slice passed to emit is scratch-backed and only valid during the
// call; emit may return false to stop early. The empty candidate is never
// reported. Reachability rows, the recursion prefix and the dedup table all
// come from a pooled arena, so steady-state the walk allocates nothing.
func (f *FST) ForEachDistinctCandidate(T []dict.ItemID, sigma int64, emit func(cand []dict.ItemID) bool) {
	if len(T) == 0 {
		return
	}
	sv := f.Sigma(sigma)
	sc := enumPool.Get().(*enumScratch)
	sc.reset()
	if sc.accepts(f, T) {
		w := enumWalk{f: f, sv: sv, T: T, sc: sc, emit: emit, words: f.words}
		w.rec(0, f.initial)
	}
	enumPool.Put(sc)
}

// accepts fills sc.reach with the accept matrix of T and reports whether the
// initial state can reach acceptance at all.
func (sc *enumScratch) accepts(f *FST, T []dict.ItemID) bool {
	need := (len(T) + 1) * f.words
	sc.reach = slices.Grow(sc.reach[:0], need)[:need]
	return f.Reach(T, sc.reach)
}

func (w *enumWalk) rec(pos, q int) {
	if pos == len(w.T) {
		if w.f.IsFinal(q) && len(w.sc.prefix) > 0 && !w.sc.seen(w.sc.prefix) {
			if !w.emit(w.sc.prefix) {
				w.stopped = true
			}
		}
		return
	}
	t := w.T[pos]
	next := w.sc.reach[(pos+1)*w.words:]
	for _, tr := range w.f.Firing(q, t) {
		if w.stopped {
			return
		}
		to := uint(w.f.To(tr))
		if next[to>>6]&(1<<(to&63)) == 0 {
			continue
		}
		single, set, ok := w.sv.OutputsFor(tr, t)
		if !ok {
			continue
		}
		if set == nil {
			if single == dict.None {
				w.rec(pos+1, int(to))
				continue
			}
			w.sc.prefix = append(w.sc.prefix, single)
			w.rec(pos+1, int(to))
			w.sc.prefix = w.sc.prefix[:len(w.sc.prefix)-1]
			continue
		}
		for _, out := range set {
			w.sc.prefix = append(w.sc.prefix, out)
			w.rec(pos+1, int(to))
			w.sc.prefix = w.sc.prefix[:len(w.sc.prefix)-1]
			if w.stopped {
				return
			}
		}
	}
}

// runWalk is the explicit state of one run enumeration.
type runWalk struct {
	f       *FST
	sv      *SigmaView
	T       []dict.ItemID
	sc      *enumScratch
	fn      func([][]dict.ItemID, int) bool
	shared  int
	stopped bool
}

// ForEachRun enumerates the accepting runs of the FST on T that can
// generate Gσ candidates and calls fn with each run's output sets in position
// order, ε positions skipped. Output sets are truncated to their items
// frequent at sigma (sigma <= 0 keeps everything), and a transition whose
// outputs are all infrequent prunes its whole DFS subtree. shared is the
// number of leading sets unchanged since the previous call (0 on the first):
// the DFS reports runs prefix by prefix, so a caller that keeps per-prefix
// state only redoes the tail. outputs and its single-item sets are scratch
// backed and valid only during the call; fn may return false to stop.
func (f *FST) ForEachRun(T []dict.ItemID, sigma int64, fn func(outputs [][]dict.ItemID, shared int) bool) {
	if len(T) == 0 {
		return
	}
	sv := f.Sigma(sigma)
	sc := enumPool.Get().(*enumScratch)
	if sc.accepts(f, T) {
		// One slot per position: ones must not move while sets point into it.
		sc.ones, sc.sets = slices.Grow(sc.ones[:0], len(T))[:len(T)], sc.sets[:0]
		w := runWalk{f: f, sv: sv, T: T, sc: sc, fn: fn}
		w.rec(0, f.initial)
	}
	enumPool.Put(sc)
}

func (w *runWalk) rec(pos, q int) {
	if pos == len(w.T) {
		// Only states on an accepting path are entered, so q is final here.
		if !w.fn(w.sc.sets, w.shared) {
			w.stopped = true
		}
		w.shared = len(w.sc.sets)
		return
	}
	t := w.T[pos]
	next := w.sc.reach[(pos+1)*w.f.words:]
	for _, tr := range w.f.Firing(q, t) {
		if w.stopped {
			return
		}
		to := uint(w.f.To(tr))
		if next[to>>6]&(1<<(to&63)) == 0 {
			continue
		}
		single, set, ok := w.sv.OutputsFor(tr, t)
		if !ok {
			continue
		}
		if set == nil && single == dict.None {
			w.rec(pos+1, int(to))
			continue
		}
		depth := len(w.sc.sets)
		if set == nil {
			w.sc.ones[depth] = single
			set = w.sc.ones[depth : depth+1 : depth+1]
		}
		w.sc.sets = append(w.sc.sets, set)
		w.rec(pos+1, int(to))
		w.sc.sets = w.sc.sets[:depth]
		w.shared = min(w.shared, depth)
	}
}
