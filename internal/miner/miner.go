// Package miner implements the sequential mining algorithms of the DESQ
// framework that the distributed algorithms of the paper build on:
//
//   - MineCount (DESQ-COUNT): enumerate the candidate subsequences of every
//     input sequence and count them. Simple, but exponential in the worst
//     case; used as the reference implementation and by the naive distributed
//     baselines.
//   - MineDFS (DESQ-DFS): pattern-growth mining with projected databases of
//     FST snapshots. This is the local miner used by D-SEQ (Sec. V-C) and the
//     sequential baseline of Table V. It supports pivot-restricted mining and
//     the early-stopping heuristic of the paper.
package miner

import (
	"math/bits"
	"slices"
	"sort"
	"sync"

	"seqmine/internal/dict"
	"seqmine/internal/fst"
)

// Pattern is one mined frequent sequence together with its frequency.
type Pattern struct {
	Items []dict.ItemID
	Freq  int64
}

// WeightedSequence is an input sequence with a multiplicity. Plain databases
// use weight 1; aggregated representations (D-CAND NFAs, deduplicated
// rewritten sequences) use larger weights.
type WeightedSequence struct {
	Items  []dict.ItemID
	Weight int64
}

// Weighted wraps a plain database into weight-1 sequences.
func Weighted(db [][]dict.ItemID) []WeightedSequence {
	out := make([]WeightedSequence, len(db))
	for i, s := range db {
		out[i] = WeightedSequence{Items: s, Weight: 1}
	}
	return out
}

// SortPatterns orders patterns by decreasing frequency and then
// lexicographically by items, in place.
func SortPatterns(ps []Pattern) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Freq != ps[j].Freq {
			return ps[i].Freq > ps[j].Freq
		}
		return lessSeq(ps[i].Items, ps[j].Items)
	})
}

// PatternsToMap converts patterns into a map keyed by the decoded
// space-separated item names. Mostly useful in tests.
func PatternsToMap(d *dict.Dictionary, ps []Pattern) map[string]int64 {
	out := make(map[string]int64, len(ps))
	for _, p := range ps {
		out[d.DecodeString(p.Items)] = p.Freq
	}
	return out
}

func lessSeq(a, b []dict.ItemID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// MineCount implements DESQ-COUNT: it enumerates Gσπ(T) for every input
// sequence, sums the weights per candidate, and reports the candidates whose
// support reaches sigma. The counting loop runs entirely on the flat FST form:
// candidates are enumerated by Flat.ForEachDistinctCandidate (scratch-backed,
// deduplicated per sequence) and aggregated in a pooled open-addressing table
// over interned item slices, so steady-state counting allocates only arena
// growth and the reported patterns.
func MineCount(f *fst.FST, db []WeightedSequence, sigma int64) []Pattern {
	fl := f.Flatten()
	tab := candPool.Get().(*candTable)
	tab.reset()
	var weight int64
	add := func(cand []dict.ItemID) bool {
		i, _ := tab.intern(cand)
		tab.entries[i].count += weight
		return true
	}
	for _, ws := range db {
		weight = ws.Weight
		fl.ForEachDistinctCandidate(ws.Items, sigma, add)
	}
	var out []Pattern
	for i := range tab.entries {
		e := &tab.entries[i]
		if e.count >= sigma {
			items := append([]dict.ItemID(nil), tab.arena[e.off:e.off+e.n]...)
			out = append(out, Pattern{Items: items, Freq: e.count})
		}
	}
	SortPatterns(out)
	candPool.Put(tab)
	return out
}

// Key returns a compact string key identifying a pattern, suitable for use as
// a map key when merging partial results across database partitions. It is the
// canonical packed encoding of dict.PackKey; dict.UnpackKey decodes it.
func Key(seq []dict.ItemID) string { return dict.PackKey(seq) }

// SupportOf computes the exact support in db of every pattern present in the
// candidates set (keyed by Key). It is the counting phase of two-phase
// partitioned mining: phase one mines each partition with a scaled-down local
// threshold to obtain a candidate superset, phase two calls SupportOf per
// partition and sums the returned counts. sigma is used only for the global
// item-frequency pruning of candidate generation and must be the global
// threshold. Like MineCount, the counting loop runs on the flat candidate
// enumeration: the candidate set is interned into a pooled open-addressing
// table once up front and each enumerated candidate is matched against it
// without forming a string key.
func SupportOf(f *fst.FST, db []WeightedSequence, sigma int64, candidates map[string]bool) map[string]int64 {
	fl := f.Flatten()
	tab := candPool.Get().(*candTable)
	tab.reset()
	keys := make([]string, 0, len(candidates))
	for key, want := range candidates {
		if !want {
			continue
		}
		if i, inserted := tab.intern(dict.UnpackKey(key)); inserted {
			for len(keys) <= i {
				keys = append(keys, "")
			}
			keys[i] = key
		}
	}
	hit := make([]bool, len(tab.entries))
	var weight int64
	add := func(cand []dict.ItemID) bool {
		if i := tab.find(cand); i >= 0 {
			tab.entries[i].count += weight
			hit[i] = true
		}
		return true
	}
	for _, ws := range db {
		weight = ws.Weight
		fl.ForEachDistinctCandidate(ws.Items, sigma, add)
	}
	counts := make(map[string]int64, len(tab.entries))
	for i := range tab.entries {
		if hit[i] {
			counts[keys[i]] = tab.entries[i].count
		}
	}
	candPool.Put(tab)
	return counts
}

// candTable is an open-addressing hash table from candidate item sequences to
// weighted counts. Candidates are interned back-to-back in one arena and slots
// hold entry indices, so lookups and counting allocate nothing beyond arena
// growth; keys are hashed with dict.HashItems, the slice-level twin of the
// packed string keys (dict.PackKey) used across partition boundaries.
type candTable struct {
	arena   []dict.ItemID
	entries []candEntry
	slots   []int32 // entry index + 1; 0 = empty
}

type candEntry struct {
	off, n int32
	hash   uint64
	count  int64
}

var candPool = sync.Pool{New: func() any { return new(candTable) }}

func (ct *candTable) reset() {
	ct.arena = ct.arena[:0]
	ct.entries = ct.entries[:0]
	if len(ct.slots) == 0 {
		ct.slots = make([]int32, 256)
	} else {
		clear(ct.slots)
	}
}

// find returns the entry index of cand, or -1 when absent.
func (ct *candTable) find(cand []dict.ItemID) int {
	h := dict.HashItems(cand)
	mask := uint64(len(ct.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := ct.slots[i]
		if s == 0 {
			return -1
		}
		e := &ct.entries[s-1]
		if e.hash == h && slices.Equal(ct.arena[e.off:e.off+e.n], cand) {
			return int(s - 1)
		}
	}
}

// intern returns the entry index of cand, inserting a zero-count entry (and
// copying the items into the arena) when absent. The second result reports
// whether a new entry was created.
func (ct *candTable) intern(cand []dict.ItemID) (int, bool) {
	h := dict.HashItems(cand)
	mask := uint64(len(ct.slots) - 1)
	i := h & mask
	for {
		s := ct.slots[i]
		if s == 0 {
			break
		}
		e := &ct.entries[s-1]
		if e.hash == h && slices.Equal(ct.arena[e.off:e.off+e.n], cand) {
			return int(s - 1), false
		}
		i = (i + 1) & mask
	}
	idx := len(ct.entries)
	off := int32(len(ct.arena))
	ct.arena = append(ct.arena, cand...)
	ct.entries = append(ct.entries, candEntry{off: off, n: int32(len(cand)), hash: h})
	ct.slots[i] = int32(idx + 1)
	if 4*len(ct.entries) >= 3*len(ct.slots) {
		ct.grow()
	}
	return idx, true
}

// grow doubles the slot table and reinserts the live entries.
func (ct *candTable) grow() {
	size := 2 * len(ct.slots)
	ct.slots = make([]int32, size)
	mask := uint64(size - 1)
	for idx := range ct.entries {
		i := ct.entries[idx].hash & mask
		for ct.slots[i] != 0 {
			i = (i + 1) & mask
		}
		ct.slots[i] = int32(idx + 1)
	}
}

// DFSOptions configures MineDFS.
type DFSOptions struct {
	// Pivot restricts mining to a partition of item-based partitioning: only
	// expansion items <= Pivot are considered and only patterns that contain
	// Pivot are reported. Zero disables the restriction.
	Pivot dict.ItemID
	// EarlyStopping enables the heuristic of Sec. V-C: input sequences are
	// not used to grow prefixes that do not yet contain the pivot item beyond
	// the last position at which the pivot can still be produced. It has no
	// effect when Pivot is zero.
	EarlyStopping bool
}

// MineDFS implements DESQ-DFS, the pattern-growth miner. It reports every
// subsequence S with fπ(S) >= sigma, subject to the pivot restriction in
// opts.
//
// The implementation works entirely on the flattened FST form (fst.Flat): one
// fst.Flat.Reach pass per sequence yields its accept and finish bitset
// matrices (and rejects sequences without an accepting run), simulation
// snapshots are packed (pos, state) cells in int32 arrays, per-expansion
// projected databases are flat int32 buffers, and all of it — the matrices of
// the whole database included, carved from one arena — is pooled scratch.
// D-SEQ's reducer calls MineDFS once per pivot partition, so steady-state
// mining allocates only the reported patterns.
func MineDFS(f *fst.FST, db []WeightedSequence, sigma int64, opts DFSOptions) []Pattern {
	fl := f.Flatten()
	d := f.Dict()
	m := &dfsMiner{
		flat:  fl,
		dict:  d,
		db:    db,
		sigma: sigma,
		opts:  opts,
		words: fl.Words(),
	}
	if n := fl.NumStates(); n > 1 {
		m.stateBits = uint(bits.Len(uint(n - 1)))
	}
	// When fids are frequency-ordered (always true for built dictionaries),
	// the frequent-item and pivot checks collapse into one integer compare.
	if d.FrequencySorted() {
		m.useLimit = true
		m.limit = d.MaxFrequentFid(sigma)
		if opts.Pivot != dict.None && opts.Pivot < m.limit {
			m.limit = opts.Pivot
		}
	}
	m.sc = scratchPool.Get().(*dfsScratch)
	out := m.run()
	scratchPool.Put(m.sc)
	return out
}

// seqCache holds the per-sequence bitset matrices used during mining, both
// slices of dfsScratch.arena. Rows are words-sized bitsets over states; row i
// covers the input suffix T[i:]. Sequences without an accepting run have none.
type seqCache struct {
	accept    []uint64 // accepting-reachable coordinates (any outputs)
	finish    []uint64 // reachable end-of-input via ε-output transitions only
	lastPivot int32    // last position that can produce the pivot item (-1 if none)
}

// maxStampCells caps the size of the epoch-stamped snapshot-dedup array (16MB
// of uint32 stamps); larger position×state spaces fall back to a hash set.
const maxStampCells = 1 << 22

// dfsScratch is the pooled per-call working memory of the miner: everything
// the expansion loop needs that is not per-sequence or per-output. Slices keep
// their capacity across MineDFS calls; generation counters make stale stamp
// contents harmless.
type dfsScratch struct {
	snapGen   uint32
	snapStamp []uint32           // per-cell generation stamps (snapshot dedup)
	snapSeen  map[int32]struct{} // fallback when the cell space exceeds maxStampCells
	stack     []int32            // DFS traversal stack of cells
	arena     []uint64           // accept and finish matrices of every accepted sequence
	cache     []seqCache         // per input sequence, slices of arena
	itemGen   uint32
	itemStamp []uint32 // per-item generation; itemSlot valid iff stamp == itemGen
	itemSlot  []int32
	frames    []frame
	rootProj  []int32
	prefix    []dict.ItemID
}

// frame is the per-recursion-depth expansion scratch: the distinct expansion
// items found at this depth and one projected-database buffer per item.
type frame struct {
	order []uint64 // packed (item<<32 | slot), sorted ascending before recursion
	exps  []expBuf
}

// expBuf accumulates the projected database of one expansion item as flat
// int32 records: [seqIdx, snapCount, cell, cell, ...].
type expBuf struct {
	buf      []int32
	lastSeq  int32
	countIdx int32
}

var scratchPool = sync.Pool{New: func() any { return new(dfsScratch) }}

type dfsMiner struct {
	flat  *fst.Flat
	dict  *dict.Dictionary
	db    []WeightedSequence
	sigma int64
	opts  DFSOptions
	out   []Pattern

	words     int         // bitset words per matrix row
	stateBits uint        // cell = pos<<stateBits | state
	limit     dict.ItemID // expansion items must be <= limit (frequency ∧ pivot)
	useLimit  bool

	sc *dfsScratch
}

func (m *dfsMiner) run() []Pattern {
	sc := m.sc
	maxLen := 0
	for i := range m.db {
		if l := len(m.db[i].Items); l > maxLen {
			maxLen = l
		}
	}
	if cells := (maxLen + 1) << m.stateBits; cells <= maxStampCells {
		if len(sc.snapStamp) < cells {
			sc.snapStamp = make([]uint32, cells)
			sc.snapGen = 0
		}
	} else {
		sc.snapStamp = nil
		if sc.snapSeen == nil {
			sc.snapSeen = make(map[int32]struct{})
		}
	}
	if vocab := m.dict.Size() + 1; len(sc.itemStamp) < vocab {
		sc.itemStamp = make([]uint32, vocab)
		sc.itemSlot = make([]int32, vocab)
		sc.itemGen = 0
	}

	// One Reach pass per sequence fills its two matrices at the arena's tail;
	// the space is kept only if the sequence has an accepting run.
	need := 0
	for i := range m.db {
		need += 2 * (len(m.db[i].Items) + 1) * m.words
	}
	sc.arena = slices.Grow(sc.arena[:0], need)[:need]
	sc.cache = slices.Grow(sc.cache[:0], len(m.db))[:len(m.db)]
	sc.rootProj = sc.rootProj[:0]
	initCell := int32(m.flat.Initial()) // pos 0 → cell = state
	used := 0
	for i := range m.db {
		T := m.db[i].Items
		rows := (len(T) + 1) * m.words
		c := seqCache{accept: sc.arena[used : used+rows], finish: sc.arena[used+rows : used+2*rows], lastPivot: -1}
		if len(T) == 0 || !m.flat.Reach(T, c.accept, c.finish) {
			continue
		}
		used += 2 * rows
		if m.opts.EarlyStopping && m.opts.Pivot != dict.None {
			c.lastPivot = int32(m.lastPivotPosition(T))
		}
		sc.cache[i] = c
		sc.rootProj = append(sc.rootProj, int32(i), 1, initCell)
	}
	if m.prefixSupport(sc.rootProj) >= m.sigma {
		m.expand(0, sc.rootProj)
	}
	SortPatterns(m.out)
	return m.out
}

// lastPivotPosition returns the last position of T whose item has the pivot
// among its ancestors, or -1. Every output of a transition is an ancestor of
// its input item, so no later position can produce the pivot.
func (m *dfsMiner) lastPivotPosition(T []dict.ItemID) int {
	for i := len(T) - 1; i >= 0; i-- {
		if m.dict.HasAncestor(T[i], m.opts.Pivot) {
			return i
		}
	}
	return -1
}

// prefixSupport sums the weights of the sequences present in the projected
// database (antimonotone pruning quantity).
func (m *dfsMiner) prefixSupport(proj []int32) int64 {
	var s int64
	for i := 0; i < len(proj); i += 2 + int(proj[i+1]) {
		s += m.db[proj[i]].Weight
	}
	return s
}

// completeSupport sums the weights of sequences for which the current prefix
// is a complete candidate subsequence: some snapshot can reach the end of the
// input in a final state without producing further output.
func (m *dfsMiner) completeSupport(proj []int32) int64 {
	var s int64
	sb := m.stateBits
	mask := int32(1)<<sb - 1
	for i := 0; i < len(proj); {
		seq := proj[i]
		n := int(proj[i+1])
		c := &m.sc.cache[seq]
		for k := 0; k < n; k++ {
			cell := proj[i+2+k]
			pos := int(cell >> sb)
			q := uint(cell & mask)
			if c.finish[pos*m.words+int(q>>6)]&(1<<(q&63)) != 0 {
				s += m.db[seq].Weight
				break
			}
		}
		i += 2 + n
	}
	return s
}

// expandable reports whether output item w may grow the prefix.
func (m *dfsMiner) expandable(w dict.ItemID) bool {
	if m.useLimit {
		return w <= m.limit
	}
	return m.dict.IsFrequent(w, m.sigma) &&
		(m.opts.Pivot == dict.None || w <= m.opts.Pivot)
}

// markSnap records a simulation cell as visited for the current sequence and
// reports whether it was new.
func (m *dfsMiner) markSnap(cell int32) bool {
	sc := m.sc
	if sc.snapStamp != nil {
		if sc.snapStamp[cell] == sc.snapGen {
			return false
		}
		sc.snapStamp[cell] = sc.snapGen
		return true
	}
	if _, ok := sc.snapSeen[cell]; ok {
		return false
	}
	sc.snapSeen[cell] = struct{}{}
	return true
}

// expand recursively grows the prefix (sc.prefix[:depth]) by one output item
// at a time.
func (m *dfsMiner) expand(depth int, proj []int32) {
	sc := m.sc
	prefix := sc.prefix[:depth]

	// Report the prefix if it is a frequent (pivot) sequence.
	if depth > 0 {
		if m.opts.Pivot == dict.None || containsItem(prefix, m.opts.Pivot) {
			if freq := m.completeSupport(proj); freq >= m.sigma {
				m.out = append(m.out, Pattern{Items: append([]dict.ItemID(nil), prefix...), Freq: freq})
			}
		}
	}

	for len(sc.frames) <= depth {
		sc.frames = append(sc.frames, frame{})
	}
	fr := &sc.frames[depth]
	fr.order = fr.order[:0]

	hasPivot := m.opts.Pivot != dict.None && containsItem(prefix, m.opts.Pivot)
	earlyStop := m.opts.EarlyStopping && m.opts.Pivot != dict.None && !hasPivot

	sc.itemGen++
	if sc.itemGen == 0 {
		clear(sc.itemStamp)
		sc.itemGen = 1
	}

	sb := m.stateBits
	mask := int32(1)<<sb - 1
	W := m.words

	for pi := 0; pi < len(proj); {
		seq := proj[pi]
		nsn := int(proj[pi+1])
		snaps := proj[pi+2 : pi+2+nsn]
		pi += 2 + nsn

		c := &sc.cache[seq]
		T := m.db[seq].Items

		if sc.snapStamp != nil {
			sc.snapGen++
			if sc.snapGen == 0 {
				clear(sc.snapStamp)
				sc.snapGen = 1
			}
		} else {
			clear(sc.snapSeen)
		}
		sc.stack = sc.stack[:0]
		for _, cell := range snaps {
			if earlyStop && c.lastPivot >= 0 && cell>>sb > c.lastPivot {
				continue // this snapshot can no longer produce the pivot
			}
			if m.markSnap(cell) {
				sc.stack = append(sc.stack, cell)
			}
		}

		// Simulate: follow ε-output transitions and scatter every output
		// target into the projected database of its item. A cell reached
		// twice is stored twice; the next level's markSnap drops the repeat.
		for len(sc.stack) > 0 {
			cell := sc.stack[len(sc.stack)-1]
			sc.stack = sc.stack[:len(sc.stack)-1]
			pos := int(cell >> sb)
			if pos >= len(T) {
				continue
			}
			t := T[pos]
			nextRow := c.accept[(pos+1)*W:]
			for _, tr := range m.flat.Firing(int(cell&mask), t) {
				to := m.flat.To(tr)
				if nextRow[uint32(to)>>6]&(1<<(uint32(to)&63)) == 0 {
					continue // target cannot reach acceptance
				}
				nextCell := int32(pos+1)<<sb | to
				single, set := m.flat.OutputsFor(tr, t)
				if single != dict.None {
					m.project(fr, single, seq, nextCell)
				} else if set == nil {
					if m.markSnap(nextCell) {
						sc.stack = append(sc.stack, nextCell)
					}
				}
				for _, w := range set {
					m.project(fr, w, seq, nextCell)
				}
			}
		}
	}

	// Recurse on sufficiently supported expansions, in ascending item order
	// for deterministic output.
	slices.Sort(fr.order)
	for _, p := range fr.order {
		w := dict.ItemID(p >> 32)
		e := &fr.exps[uint32(p)]
		if m.prefixSupport(e.buf) < m.sigma {
			continue
		}
		sc.prefix = append(sc.prefix[:depth], w)
		m.expand(depth+1, e.buf)
	}
}

// project appends cell to sequence seq's snapshots in the projected database
// of expansion item w at frame fr, opening the item's buffer on first use.
func (m *dfsMiner) project(fr *frame, w dict.ItemID, seq, cell int32) {
	if !m.expandable(w) {
		return
	}
	sc := m.sc
	if sc.itemStamp[w] != sc.itemGen {
		sc.itemStamp[w] = sc.itemGen
		slot := len(fr.order)
		sc.itemSlot[w] = int32(slot)
		fr.order = append(fr.order, uint64(w)<<32|uint64(slot))
		if len(fr.exps) <= slot {
			fr.exps = append(fr.exps, expBuf{})
		}
		fr.exps[slot].buf = fr.exps[slot].buf[:0]
		fr.exps[slot].lastSeq = -1
	}
	e := &fr.exps[sc.itemSlot[w]]
	if e.lastSeq != seq {
		e.lastSeq = seq
		e.countIdx = int32(len(e.buf) + 1)
		e.buf = append(e.buf, seq, 0)
	}
	e.buf = append(e.buf, cell)
	e.buf[e.countIdx]++
}

func containsItem(seq []dict.ItemID, w dict.ItemID) bool {
	for _, it := range seq {
		if it == w {
			return true
		}
	}
	return false
}
