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
	"cmp"
	"context"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

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
// support reaches sigma. The counting loop runs entirely on the FST's tables:
// candidates are enumerated by FST.ForEachDistinctCandidate (scratch-backed,
// deduplicated per sequence) and aggregated in a pooled open-addressing table
// over interned item slices, so steady-state counting allocates only arena
// growth and the reported patterns.
//
// With workers > 1 the database is counted on that many contiguous sequence
// ranges, one goroutine and one table each, and the tables are summed into the
// first before the sigma filter: one exact phase, the same answer. ctx is
// checked every 1,024 sequences; a cancelled call returns nil.
func MineCount(ctx context.Context, f *fst.FST, db []WeightedSequence, sigma int64, workers int) []Pattern {
	workers = max(1, min(workers, len(db)))
	tabs := make([]*candTable, workers)
	fanOut(workers, func(r int) {
		tab := candPool.Get().(*candTable)
		tab.reset()
		tabs[r] = tab
		var weight int64
		add := func(cand []dict.ItemID) bool {
			i, _ := tab.intern(cand)
			tab.entries[i].count += weight
			return true
		}
		for i, ws := range db[r*len(db)/workers : (r+1)*len(db)/workers] {
			if i&1023 == 1023 && ctx.Err() != nil {
				return
			}
			weight = ws.Weight
			f.ForEachDistinctCandidate(ws.Items, sigma, add)
		}
	})
	var out []Pattern
	if ctx.Err() == nil {
		tab := tabs[0]
		for _, other := range tabs[1:] {
			for _, e := range other.entries {
				i, _ := tab.intern(other.arena[e.off : e.off+e.n])
				tab.entries[i].count += e.count
			}
		}
		for i := range tab.entries {
			e := &tab.entries[i]
			if e.count >= sigma {
				items := append([]dict.ItemID(nil), tab.arena[e.off:e.off+e.n]...)
				out = append(out, Pattern{Items: items, Freq: e.count})
			}
		}
		SortPatterns(out)
	}
	for _, tab := range tabs {
		candPool.Put(tab)
	}
	return out
}

// fanOut runs fn(0) … fn(n-1) on n goroutines, the caller's being the first,
// and returns when all of them have.
func fanOut(n int, fn func(r int)) {
	var wg sync.WaitGroup
	for r := 1; r < n; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(r)
		}()
	}
	fn(0)
	wg.Wait()
}

// candTable is an open-addressing hash table from candidate item sequences to
// weighted counts. Candidates are interned back-to-back in one arena and slots
// hold entry indices, so lookups and counting allocate nothing beyond arena
// growth; keys are hashed with dict.HashItems.
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
	// Workers > 1 mines on that many goroutines (see MineDFS), with the
	// single-threaded result; <= 1 is single-threaded.
	Workers int
	// Context, when non-nil, cancels the call: it is checked every 1,024
	// sequences of the set-up and of a scan, before every task and at every
	// prefix. A cancelled MineDFS returns nil.
	Context context.Context
	// Split, when non-nil, receives how the call was divided among workers.
	Split *SplitStats
}

// SplitStats describes how a miner divided one call among its workers.
type SplitStats struct {
	// Workers is the number of goroutines that mined.
	Workers int `json:"workers"`
	// Tasks is the number of first-level subtrees a parallel MineDFS or a
	// Prepared.Mine mined as tasks, and LargestTaskShare the largest one's
	// projected database as a fraction of all of theirs: near 1, one subtree
	// bounds the call. Both are 0 for MineCount and for a single-threaded
	// MineDFS.
	Tasks            int     `json:"tasks"`
	LargestTaskShare float64 `json:"largest_task_share"`
}

// MineDFS implements DESQ-DFS, the pattern-growth miner. It reports every
// subsequence S with fπ(S) >= sigma, subject to the pivot restriction in
// opts.
//
// The implementation works entirely on the FST's tables: one fst.FST.Reach
// pass per sequence yields its accept and finish bitset matrices (and rejects
// sequences without an accepting run) and one fst.FST.Productive pass its
// prod matrix, the snapshots that can still
// emit — the only ones a scan walks; simulation
// snapshots are packed (pos, state) cells in int32 arrays, per-expansion
// projected databases are flat int32 buffers, and all of it — the matrices of
// the whole database included, carved from one arena — is pooled scratch.
// D-SEQ's reducer calls MineDFS once per pivot partition, so steady-state
// mining allocates only the reported patterns.
//
// With opts.Workers > 1 the call is the two halves of a Prepared run back to
// back in the pooled state (see Prepare and Prepared.Mine): the set-up and the
// root scan on contiguous sequence ranges, one goroutine each, writing disjoint
// regions of the arena; the merge of the ranges' first items; and the
// first-level subtrees that reach sigma as tasks. The result is exactly the
// single-threaded miner's, order included.
func MineDFS(f *fst.FST, db []WeightedSequence, sigma int64, opts DFSOptions) []Pattern {
	m := newMiner(f, db, sigma, opts)
	workers := max(1, min(opts.Workers, len(db)))
	split := SplitStats{Workers: workers}
	sh := sharedPool.Get().(*dfsShared)
	sh.layOut(&m, workers)
	var out []Pattern
	if workers > 1 {
		if sh.prepare(&sh.dfsState) {
			out = sh.mine(&sh.dfsState, &split)
		}
	} else {
		w := &sh.miners[0]
		if w.setUp(); w.prefixSupport(w.sc.rootProj) >= sigma {
			w.expand(0, w.sc.rootProj)
		}
		out = w.out
	}
	sh.release()
	if opts.Split != nil {
		*opts.Split = split
	}
	if m.stopped() {
		return nil
	}
	SortPatterns(out)
	return out
}

// newMiner returns the miner of f over db at sigma under opts, without shared
// state, range or scratch: what layOut copies to every worker.
func newMiner(f *fst.FST, db []WeightedSequence, sigma int64, opts DFSOptions) dfsMiner {
	d := f.Dict()
	m := dfsMiner{
		fst:   f,
		dict:  d,
		db:    db,
		sigma: sigma,
		opts:  opts,
		words: f.Words(),
	}
	if n := f.NumStates(); n > 1 {
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
	if opts.Context != nil {
		m.done = opts.Context.Done()
	}
	return m
}

// Prepared is the part of DESQ-DFS over one FST and one unweighted database
// that does not depend on sigma, kept: the weight-1 view of the sequences, the
// matrices of the accepted ones at the size they use, and every first item's
// projected database with its support. It is immutable: any number of Mine
// calls at any sigma may run on it at once.
type Prepared struct {
	m     dfsMiner // the template of every Mine call's workers; m.sh is &state
	state dfsState
	cells int // the position×state space of the longest sequence
	bytes int64
}

// Prepare builds the Prepared of f over seqs on workers goroutines: the
// range-parallel set-up, root scan and merge of a parallel MineDFS, with the
// root scan's frequency cut open (sigma 1). An item's projected database does
// not depend on which other items pass the cut, so a first item that reaches a
// later sigma has exactly the one a root scan cut at that sigma would give it.
// ctx is checked every 1,024 sequences; a cancelled call returns nil.
func Prepare(ctx context.Context, f *fst.FST, seqs [][]dict.ItemID, workers int) *Prepared {
	p := &Prepared{m: newMiner(f, Weighted(seqs), 1, DFSOptions{})}
	p.m.done = ctx.Done()
	sh := sharedPool.Get().(*dfsShared)
	p.cells = sh.layOut(&p.m, max(1, min(workers, len(seqs))))
	ok := sh.prepare(&p.state)
	if ok {
		p.retainMatrices(sh)
	}
	sh.release()
	if !ok {
		return nil
	}
	p.m.sh, p.m.done = &p.state, nil
	st := &p.state
	p.bytes = int64(8*cap(st.arena) + 4*cap(st.level1) + cap(st.roots)*int(unsafe.Sizeof(rootItem{})) +
		len(seqs)*int(unsafe.Sizeof(seqCache{})+unsafe.Sizeof(WeightedSequence{})))
	return p
}

// retainMatrices copies the matrices of the accepted sequences — the ranges'
// root projected databases — out of the pooled arena, which reserves room for
// every sequence, into one of the size they use, and points p's cache at them.
func (p *Prepared) retainMatrices(sh *dfsShared) {
	n := 0
	for r := range sh.miners {
		for proj := sh.miners[r].sc.rootProj; len(proj) > 0; proj = proj[3:] {
			n += matrices * len(sh.cache[proj[0]].accept)
		}
	}
	arena := make([]uint64, 0, n)
	cache := make([]seqCache, len(sh.cache))
	for r := range sh.miners {
		for proj := sh.miners[r].sc.rootProj; len(proj) > 0; proj = proj[3:] {
			c := sh.cache[proj[0]]
			rows, at := len(c.accept), len(arena)
			arena = append(append(append(arena, c.accept...), c.finish...), c.prod...)
			c.accept, c.finish, c.prod = arena[at:at+rows], arena[at+rows:at+2*rows], arena[at+2*rows:]
			cache[proj[0]] = c
		}
	}
	p.state.arena, p.state.cache = arena, cache
}

// Bytes is the memory p retains, for a cache's budget.
func (p *Prepared) Bytes() int64 { return p.bytes }

// Mine returns what MineDFS(f, Weighted(seqs), sigma, DFSOptions{}) returns,
// order included: the first items whose support reaches sigma are the tasks,
// largest first, of up to workers goroutines with pooled scratch of their own
// over p's read-only state. split, when non-nil, receives how the call was
// divided. ctx is checked before every task and at every prefix; a cancelled
// call returns nil.
func (p *Prepared) Mine(ctx context.Context, sigma int64, workers int, split *SplitStats) []Pattern {
	m := p.m
	m.sigma, m.done = sigma, ctx.Done()
	if m.useLimit {
		m.limit = m.dict.MaxFrequentFid(sigma)
	}
	workers = max(1, min(workers, len(m.db)))
	sh := sharedPool.Get().(*dfsShared)
	sh.miners = slices.Grow(sh.miners[:0], workers)[:workers]
	for r := range sh.miners {
		sh.miners[r] = m
	}
	sh.arm(p.cells)
	st := SplitStats{Workers: workers}
	out := sh.mine(&p.state, &st)
	sh.release()
	if split != nil {
		*split = st
	}
	if m.stopped() {
		return nil
	}
	SortPatterns(out)
	return out
}

// seqCache holds the per-sequence bitset matrices used during mining, all
// slices of dfsShared.arena. Rows are words-sized bitsets over states; row i
// covers the input suffix T[i:]. Sequences without an accepting run have none.
type seqCache struct {
	accept    []uint64 // accepting-reachable coordinates (any outputs)
	finish    []uint64 // reachable end-of-input via ε-output transitions only
	prod      []uint64 // can still output an item (fst.FST.Productive)
	lastPivot int32    // last position that can produce the pivot item (-1 if none)
}

// matrices is the number of a seqCache's matrices: accept, finish and prod.
const matrices = 3

// maxStampCells caps the size of the epoch-stamped snapshot-dedup array (16MB
// of uint32 stamps); larger position×state spaces fall back to a hash set.
const maxStampCells = 1 << 22

// dfsState is what the set-up, the root scan and the merge of a parallel call
// build and its tasks only read: pooled with the dfsShared of a one-shot
// MineDFS, a Prepared's own when it is kept.
type dfsState struct {
	arena  []uint64   // accept, finish and prod matrices of every accepted sequence
	cache  []seqCache // per input sequence, slices of arena
	roots  []rootItem // the first items, largest projected database first
	level1 []int32    // the roots' projected databases, back to back
}

// dfsShared is the pooled state of one call: a MineDFS's dfsState — written
// range by range during the set-up and by the calling goroutine alone during
// the merge, read-only while the tasks run; idle under a Prepared.Mine — and
// the call's workers and tasks.
type dfsShared struct {
	dfsState
	miners []dfsMiner   // one per worker; worker r sets up db[lo:hi)
	tasks  []rootItem   // the roots that reach the call's sigma, in their order
	next   atomic.Int64 // index of the next task to pull
}

// rootItem is a first item with a projected database: one range's part of
// it, a buffer of that range's root frame, or once merged all of it, in
// level1, with the weight of the sequences in it.
type rootItem struct {
	item    dict.ItemID
	buf     []int32
	support int64
}

var sharedPool = sync.Pool{New: func() any { return new(dfsShared) }}

// dfsScratch is the pooled per-worker working memory of the miner: everything
// the expansion loop needs that is not per-sequence or per-output. Slices keep
// their capacity across MineDFS calls; generation counters make stale stamp
// contents harmless.
type dfsScratch struct {
	snapGen   uint32
	snapStamp []uint32           // per-cell generation stamps (snapshot dedup)
	snapSeen  map[int32]struct{} // fallback when the cell space exceeds maxStampCells
	stack     []int32            // DFS traversal stack of cells
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
	order []uint64 // packed (item<<32 | slot), sorted ascending by scan
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

// dfsMiner is one worker of a MineDFS call. The fields up to sh are the same
// in every worker of the call; the rest is the worker's own.
type dfsMiner struct {
	fst   *fst.FST
	dict  *dict.Dictionary
	db    []WeightedSequence
	sigma int64
	opts  DFSOptions
	done  <-chan struct{} // opts.Context's, nil without one

	words     int         // bitset words per matrix row
	stateBits uint        // cell = pos<<stateBits | state
	limit     dict.ItemID // expansion items must be <= limit (frequency ∧ pivot)
	useLimit  bool
	sh        *dfsState // arena and cache

	lo, hi int // the sequence range this worker sets up
	base   int // where the range's matrices start in the arena
	sc     *dfsScratch
	out    []Pattern
}

// layOut sizes the arena and cache for m's database and gives every worker its
// copy of m, a scratch, a contiguous sequence range and the range's arena
// offset: the prefix sum of the earlier ranges' needs, so set-ups do not meet.
// It returns the position×state space the scratches were sized for.
func (sh *dfsShared) layOut(m *dfsMiner, workers int) int {
	m.sh = &sh.dfsState
	sh.miners = slices.Grow(sh.miners[:0], workers)[:workers]
	sh.cache = slices.Grow(sh.cache[:0], len(m.db))[:len(m.db)]
	need, maxLen := 0, 0
	for r := range sh.miners {
		w := &sh.miners[r]
		*w = *m
		w.lo, w.hi, w.base = r*len(m.db)/workers, (r+1)*len(m.db)/workers, need
		for _, ws := range m.db[w.lo:w.hi] {
			need += matrices * (len(ws.Items) + 1) * m.words
			maxLen = max(maxLen, len(ws.Items))
		}
	}
	sh.arena = slices.Grow(sh.arena[:0], need)[:need]
	cells := (maxLen + 1) << m.stateBits
	sh.arm(cells)
	return cells
}

// arm gives every worker a pooled scratch fit for sequences of cells
// (position, state) pairs and the workers' dictionary.
func (sh *dfsShared) arm(cells int) {
	vocab := sh.miners[0].dict.Size() + 1
	for r := range sh.miners {
		sc := scratchPool.Get().(*dfsScratch)
		sh.miners[r].sc = sc
		if cells <= maxStampCells {
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
		if len(sc.itemStamp) < vocab {
			sc.itemStamp = make([]uint32, vocab)
			sc.itemSlot = make([]int32, vocab)
			sc.itemGen = 0
		}
		sc.rootProj = sc.rootProj[:0]
	}
}

// release returns the workers' scratches and sh to their pools.
func (sh *dfsShared) release() {
	for i := range sh.miners {
		scratchPool.Put(sh.miners[i].sc)
	}
	// The pool must not keep the caller's database or a Prepared alive.
	clear(sh.miners)
	clear(sh.tasks)
	sharedPool.Put(sh)
}

// prepare is the half of the parallel miner that sigma enters only through the
// root scan's frequency cut: every worker's set-up and root scan of its range
// in sh, then the merge of the ranges' first items into dst. False: cancelled.
func (sh *dfsShared) prepare(dst *dfsState) bool {
	fanOut(len(sh.miners), func(r int) {
		w := &sh.miners[r]
		w.setUp()
		if !w.stopped() {
			w.scan(0, w.sc.rootProj)
		}
	})
	m := &sh.miners[0]
	if m.stopped() {
		return false
	}

	// Merge the ranges' first items: sorted by item, ties in range order, an
	// item's projected database is its run of buffers copied back to back into
	// level1 (sized up front, so that it does not move), its support the sum of
	// theirs. Merged roots overwrite the ranges' roots already read.
	dst.roots = dst.roots[:0]
	total := 0
	for r := range sh.miners {
		fr := &sh.miners[r].sc.frames[0]
		for _, p := range fr.order {
			buf := fr.exps[uint32(p)].buf
			dst.roots = append(dst.roots, rootItem{item: dict.ItemID(p >> 32), buf: buf})
			total += len(buf)
		}
	}
	slices.SortStableFunc(dst.roots, func(a, b rootItem) int { return cmp.Compare(a.item, b.item) })
	dst.level1 = slices.Grow(dst.level1[:0], total)
	merged := dst.roots[:0]
	for i := 0; i < len(dst.roots); {
		root := rootItem{item: dst.roots[i].item}
		off := len(dst.level1)
		for ; i < len(dst.roots) && dst.roots[i].item == root.item; i++ {
			root.support += m.prefixSupport(dst.roots[i].buf)
			dst.level1 = append(dst.level1, dst.roots[i].buf...)
		}
		root.buf = dst.level1[off:]
		merged = append(merged, root)
	}
	dst.roots = merged
	slices.SortFunc(dst.roots, func(a, b rootItem) int { return cmp.Compare(len(b.buf), len(a.buf)) })
	return true
}

// mine is the half that depends on sigma: the roots of st whose support
// reaches it (and that pass the workers' frequency and pivot cut) are tasks,
// pulled in st's order, largest first, from one counter by sh's workers, which
// share only st, read-only. SortPatterns is a total order on distinct
// patterns, so the concatenated outputs sort to the single-threaded result.
func (sh *dfsShared) mine(st *dfsState, split *SplitStats) []Pattern {
	m := &sh.miners[0]
	tasks, total := sh.tasks[:0], 0
	for _, root := range st.roots {
		if root.support >= m.sigma && m.expandable(root.item) {
			tasks = append(tasks, root)
			total += len(root.buf)
		}
	}
	sh.tasks = tasks
	if len(tasks) == 0 {
		return nil
	}
	split.Tasks = len(tasks)
	split.LargestTaskShare = float64(len(tasks[0].buf)) / float64(total)

	sh.next.Store(0)
	fanOut(min(len(sh.miners), len(tasks)), func(r int) {
		w := &sh.miners[r]
		for !w.stopped() {
			i := int(sh.next.Add(1)) - 1
			if i >= len(tasks) {
				return
			}
			w.sc.prefix = append(w.sc.prefix[:0], tasks[i].item)
			w.expand(1, tasks[i].buf)
		}
	})
	out := m.out
	for r := 1; r < len(sh.miners); r++ {
		out = append(out, sh.miners[r].out...)
	}
	return out
}

// stopped reports whether the call's context has been cancelled.
func (m *dfsMiner) stopped() bool {
	select {
	case <-m.done:
		return true
	default:
		return false
	}
}

// setUp runs one Reach and one Productive pass per sequence of the worker's
// range, filling the sequence's matrices at the tail of the range's arena
// region (the space is kept only if the sequence has an accepting run), and
// collects the root projected database of the range.
func (m *dfsMiner) setUp() {
	sc := m.sc
	initCell := int32(m.fst.Initial()) // pos 0 → cell = state
	used := m.base
	for i := m.lo; i < m.hi; i++ {
		if i&1023 == 1023 && m.stopped() {
			return
		}
		T := m.db[i].Items
		rows := (len(T) + 1) * m.words
		c := seqCache{accept: m.sh.arena[used : used+rows], finish: m.sh.arena[used+rows : used+2*rows],
			prod: m.sh.arena[used+2*rows : used+3*rows], lastPivot: -1}
		if len(T) == 0 || !m.fst.Reach(T, c.accept, c.finish) {
			continue
		}
		m.fst.Productive(T, c.accept, c.prod)
		used += matrices * rows
		if m.opts.EarlyStopping && m.opts.Pivot != dict.None {
			c.lastPivot = int32(m.lastPivotPosition(T))
		}
		m.sh.cache[i] = c
		sc.rootProj = append(sc.rootProj, int32(i), 1, initCell)
	}
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
		c := &m.sh.cache[seq]
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

// expand reports the prefix (sc.prefix[:depth]) if it is a frequent (pivot)
// sequence and recursively grows it by one output item at a time.
func (m *dfsMiner) expand(depth int, proj []int32) {
	if m.stopped() {
		return
	}
	sc := m.sc
	if depth > 0 {
		prefix := sc.prefix[:depth]
		if m.opts.Pivot == dict.None || containsItem(prefix, m.opts.Pivot) {
			if freq := m.completeSupport(proj); freq >= m.sigma {
				m.out = append(m.out, Pattern{Items: append([]dict.ItemID(nil), prefix...), Freq: freq})
			}
		}
	}

	// Recurse on sufficiently supported expansions, in ascending item order.
	fr := m.scan(depth, proj)
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

// scan simulates every snapshot of proj, the projected database of the prefix
// sc.prefix[:depth], one output item further and returns the depth's frame:
// the distinct expansion items in ascending order, each with its projected
// database.
func (m *dfsMiner) scan(depth int, proj []int32) *frame {
	sc := m.sc
	for len(sc.frames) <= depth {
		sc.frames = append(sc.frames, frame{})
	}
	fr := &sc.frames[depth]
	fr.order = fr.order[:0]

	hasPivot := m.opts.Pivot != dict.None && containsItem(sc.prefix[:depth], m.opts.Pivot)
	earlyStop := m.opts.EarlyStopping && m.opts.Pivot != dict.None && !hasPivot

	sc.itemGen++
	if sc.itemGen == 0 {
		clear(sc.itemStamp)
		sc.itemGen = 1
	}

	sb := m.stateBits
	mask := int32(1)<<sb - 1
	W := m.words

	for pi, n := 0, 0; pi < len(proj); n++ {
		if n&1023 == 1023 && m.stopped() {
			break // the caller drops the partial frame
		}
		seq := proj[pi]
		nsn := int(proj[pi+1])
		snaps := proj[pi+2 : pi+2+nsn]
		pi += 2 + nsn

		c := &m.sh.cache[seq]
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
			if q := uint32(cell & mask); c.prod[int(cell>>sb)*W+int(q>>6)]&(1<<(q&63)) != 0 && m.markSnap(cell) {
				sc.stack = append(sc.stack, cell)
			}
		}

		// Simulate: follow ε-output transitions and scatter every output
		// target into the projected database of its item. A cell reached
		// twice is stored twice; the next level's markSnap drops the repeat.
		// Only productive cells are pushed — a cell whose prod bit is clear
		// projects nothing and leads only to such cells — so no popped cell
		// sits at the end of T (prod's last row is empty).
		for len(sc.stack) > 0 {
			cell := sc.stack[len(sc.stack)-1]
			sc.stack = sc.stack[:len(sc.stack)-1]
			pos := int(cell >> sb)
			t := T[pos]
			nextRow, nextProd := c.accept[(pos+1)*W:], c.prod[(pos+1)*W:]
			for _, tr := range m.fst.Firing(int(cell&mask), t) {
				to := m.fst.To(tr)
				bit := uint64(1) << (uint32(to) & 63)
				if nextRow[uint32(to)>>6]&bit == 0 {
					continue // target cannot reach acceptance
				}
				nextCell := int32(pos+1)<<sb | to
				single, set := m.fst.OutputsFor(tr, t)
				if single != dict.None {
					m.project(fr, single, seq, nextCell)
				} else if set == nil {
					if nextProd[uint32(to)>>6]&bit != 0 && m.markSnap(nextCell) {
						sc.stack = append(sc.stack, nextCell)
					}
				}
				for _, w := range set {
					m.project(fr, w, seq, nextCell)
				}
			}
		}
	}

	slices.Sort(fr.order)
	return fr
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
