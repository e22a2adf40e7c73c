// Package miner implements DESQ-DFS, the sequential miner of the DESQ
// framework that the distributed algorithms of the paper build on:
// pattern-growth mining with projected databases of FST snapshots. It is the
// local miner used by D-SEQ (Sec. V-C) and the sequential baseline of
// Table V, and supports pivot-restricted mining and the early-stopping
// heuristic of the paper. DESQ-COUNT, which enumerates and counts every
// sequence's candidate subsequences, is the oracle the package's tests hold
// MineDFS to.
package miner

import (
	"cmp"
	"context"
	"math"
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
		return slices.Compare(ps[i].Items, ps[j].Items) < 0
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

// DFSOptions configures MineDFS.
type DFSOptions struct {
	// Pivot restricts mining to a partition of item-based partitioning: only
	// expansion items <= Pivot are considered and only patterns that contain
	// Pivot are reported. Zero disables the restriction.
	Pivot dict.ItemID
	// EarlyStopping enables the early stopping of Sec. V-C, per (position,
	// state) cell: a prefix that does not yet contain the pivot item is grown
	// only from cells with an accepting run that can still output the pivot
	// (the live rows of fst.FST.Rows), and only such cells count towards its
	// children's supports. It is exact, and has no effect when Pivot is zero.
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
	// Tasks is the number of subtrees a call mined as tasks — a parallel
	// MineDFS's first items, a Prepared.Mine's item triples (item pairs where
	// the Prepared kept level 2) — and LargestTaskShare the largest one's
	// projected database as a fraction of all of theirs: near 1, one subtree
	// bounds the call. Both are 0 for a single-threaded MineDFS and for a
	// Prepared.Mine that sigma leaves no such prefix.
	Tasks            int     `json:"tasks"`
	LargestTaskShare float64 `json:"largest_task_share"`
}

// MineDFS implements DESQ-DFS, the pattern-growth miner. It reports every
// subsequence S with fπ(S) >= sigma, subject to the pivot restriction in
// opts.
//
// The implementation works entirely on the FST's tables: one fst.FST.Rows
// pass per sequence writes its row block (seqCache) — accept, finish and prod
// rows, the snapshots that can still emit, and under a pivot with early
// stopping live rows, the snapshots that can still emit the pivot — and
// rejects sequences without an accepting run; one scan of a projected
// database yields the prefix's support and every expansion's projected
// database and support. Snapshots are packed (pos, state) cells in int32
// arrays, projected databases flat int32 buffers, and all of it — the row
// blocks of the whole database, carved from one arena — is pooled scratch.
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
		if sh.prepare() {
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
	}
	m.earlyStop = opts.EarlyStopping && opts.Pivot != dict.None
	m.rows = f.RowLayout(m.earlyStop)
	if n := f.NumStates(); n > 1 {
		m.stateBits = uint(bits.Len(uint(n - 1)))
	}
	// Fids are frequency-ordered, so the frequent-item and pivot checks
	// collapse into one integer compare.
	m.limit = d.MaxFrequentFid(sigma)
	if opts.Pivot != dict.None && opts.Pivot < m.limit {
		m.limit = opts.Pivot
	}
	if opts.Context != nil {
		m.done = opts.Context.Done()
	}
	return m
}

// Prepared is the part of DESQ-DFS over one FST and one unweighted database
// that does not depend on sigma, kept: the weight-1 view of the sequences, the
// matrices of the accepted ones at the size they use, the support of every
// one- and two-item prefix as a pattern, and every three-item prefix's
// projected database with its support — or, when those databases would
// outweigh the rest (see keepLevel), every two-item prefix's instead. It is
// immutable: any number of Mine calls at any sigma may run on it at once.
type Prepared struct {
	m     dfsMiner // the template of every Mine call's workers; m.sh is &state
	state dfsState // its prefixes are the item triples (or pairs), the tasks
	kept  []node   // every shorter prefix with its support as a pattern, no database
	cells int      // the position×state space of the longest sequence
	bytes int64
}

// keptDepth is the length of the prefixes a Prepared keeps with their
// projected databases, unless keepLevel's bound stops it one level short.
const keptDepth = 3

// Prepare builds the Prepared of f over seqs on workers goroutines: the
// range-parallel set-up, root scan and merge of a parallel MineDFS, with the
// root scan's frequency cut open (sigma 1), then one keepLevel pass per level
// below the first items, cut open too. An item's projected database does not
// depend on which other items pass the cut, so a prefix that reaches a later
// sigma has exactly the one a scan cut at that sigma would give it. ctx is
// checked every 1,024 sequences and before every prefix's scan; a cancelled
// call returns nil.
func Prepare(ctx context.Context, f *fst.FST, seqs [][]dict.ItemID, workers int) *Prepared {
	p := &Prepared{m: newMiner(f, Weighted(seqs), 1, DFSOptions{})}
	p.m.done = ctx.Done()
	sh := sharedPool.Get().(*dfsShared)
	p.cells = sh.layOut(&p.m, max(1, min(workers, len(seqs))))
	ok := sh.prepare()
	if ok {
		p.retainMatrices(sh)
	}
	for depth := 1; ok && depth < keptDepth; depth++ {
		ok = p.keepLevel(sh, depth)
	}
	sh.release()
	if !ok {
		return nil
	}
	p.m.sh, p.m.done = &p.state, nil
	return p
}

// keepLevel scans, at sigma 1, every prefix of the given depth — the first
// items sh merged at depth 1, p's kept prefixes after that — on sh's workers,
// which pull them from one counter. p keeps each one's support as a pattern
// (the scan counts it) and, in place of the scanned level, every child prefix
// with its support, largest projected database first, the databases in one
// buffer of the size they use. A level below the second is kept only if its
// databases and nodes take no more bytes than the Prepared holds without it:
// the pass stops once their running total exceeds that, and p stays as it
// was. The total is the same on any number of workers, and so is the depth p
// keeps. False: cancelled.
func (p *Prepared) keepLevel(sh *dfsShared, depth int) bool {
	from, budget := &sh.dfsState, int64(math.MaxInt64)
	if depth > 1 {
		from, budget = &p.state, p.bytes
	}
	var used atomic.Int64
	kept := make([]node, len(from.prefixes))
	children := make([][]node, len(sh.miners))
	projs := make([][]int32, len(sh.miners)) // worker r's children's databases, at their offsets
	sh.pull(len(from.prefixes), func(sh *dfsShared, r, i int) {
		w, n := &sh.miners[r], &from.prefixes[i]
		w.sc.prefix = append(w.sc.prefix[:0], n.prefix()...)
		fr := w.scan(depth, from.db(n))
		kept[i] = node{items: n.items, support: fr.support}
		size := 0
		for _, o := range fr.order {
			e := &fr.exps[uint32(o)]
			child := node{items: n.items, off: len(projs[r]), support: e.support}
			child.items[depth] = dict.ItemID(o >> 32)
			projs[r] = append(projs[r], e.buf...)
			child.end = len(projs[r])
			children[r] = append(children[r], child)
			size += 4*len(e.buf) + int(unsafe.Sizeof(node{}))
		}
		if used.Add(int64(size)) > budget {
			sh.next.Store(int64(len(from.prefixes))) // the workers pull nothing more
		}
	})
	if sh.miners[0].stopped() {
		return false
	}
	if used.Load() > budget {
		return true
	}
	p.kept = append(append(make([]node, 0, len(p.kept)+len(kept)), p.kept...), kept...)
	st := &p.state
	count, total := 0, 0
	for r := range children {
		count, total = count+len(children[r]), total+len(projs[r])
	}
	st.prefixes, st.projs = make([]node, 0, count), make([]int32, 0, total)
	for r := range children {
		base := len(st.projs)
		st.projs = append(st.projs, projs[r]...)
		for _, n := range children[r] {
			n.off, n.end = base+n.off, base+n.end
			st.prefixes = append(st.prefixes, n)
		}
	}
	slices.SortFunc(st.prefixes, func(a, b node) int { return cmp.Compare(b.words(), a.words()) })
	p.bytes = int64(8*cap(st.arena) + 4*cap(st.projs) + (cap(st.prefixes)+cap(p.kept))*int(unsafe.Sizeof(node{})) +
		len(p.m.db)*int(unsafe.Sizeof(seqCache{})+unsafe.Sizeof(WeightedSequence{})))
	return true
}

// retainMatrices copies the row blocks of the accepted sequences — the ranges'
// root projected databases — out of the pooled arena, which reserves room for
// every sequence, into one of the size they use, and points p's cache at them.
func (p *Prepared) retainMatrices(sh *dfsShared) {
	block := func(seq int32) int { return (len(p.m.db[seq].Items) + 1) * p.m.rows.Stride }
	n := 0
	for r := range sh.miners {
		for proj := sh.miners[r].sc.rootProj; len(proj) > 0; proj = proj[3:] {
			n += block(proj[0])
		}
	}
	arena := make([]uint64, 0, n)
	cache := slices.Repeat([]seqCache{{rows: -1}}, len(sh.cache))
	for r := range sh.miners {
		for proj := sh.miners[r].sc.rootProj; len(proj) > 0; proj = proj[3:] {
			c := sh.cache[proj[0]]
			at := len(arena)
			arena = append(arena, sh.arena[c.rows:c.rows+block(proj[0])]...)
			c.rows = at
			cache[proj[0]] = c
		}
	}
	p.state.arena, p.state.cache = arena, cache
}

// Bytes is the memory p retains, for a cache's budget.
func (p *Prepared) Bytes() int64 { return p.bytes }

// Mine returns what MineDFS(f, Weighted(seqs), sigma, DFSOptions{}) returns,
// order included: the patterns shorter than p's deepest prefixes come from
// the kept supports, and the deepest prefixes that sigma reaches are the
// tasks, largest first, of up to workers goroutines with pooled scratch of
// their own over p's read-only state. split, when non-nil, receives how the
// call was divided. ctx is checked before every task and at every prefix; a
// cancelled call returns nil.
func (p *Prepared) Mine(ctx context.Context, sigma int64, workers int, split *SplitStats) []Pattern {
	m := p.m
	m.sigma, m.done = sigma, ctx.Done()
	m.limit = m.dict.MaxFrequentFid(sigma)
	workers = max(1, min(workers, len(m.db)))
	sh := sharedPool.Get().(*dfsShared)
	sh.miners = slices.Grow(sh.miners[:0], workers)[:workers]
	for r := range sh.miners {
		sh.miners[r] = m
	}
	for i := range p.kept {
		if n := &p.kept[i]; m.reaches(n) {
			sh.miners[0].out = append(sh.miners[0].out, Pattern{Items: slices.Clone(n.prefix()), Freq: n.support})
		}
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

// seqCache locates a sequence's row block in the arena, written by
// fst.FST.Rows: row i, for the suffix T[i:], holds accept_i, prod_i and
// finish_i side by side, and live_i under a pivot with early stopping, so a
// scan finds a cell's bits in one place. accept: the state reaches acceptance
// on T[i:]; prod: it can still output an item; finish: it reaches the end of T
// in a final state over ε-output transitions only; live: it can still output
// the pivot. On an automaton of at most 8 states a row is one word that also
// holds T[i] (fst.RowLayout), so with the weight kept here a scan reads
// nothing of the sequence itself.
type seqCache struct {
	rows   int   // arena offset of row 0; -1: no accepting run, no rows
	weight int64 // the sequence's weight
}

// maxStampCells caps the size of the epoch-stamped snapshot-dedup array (16MB
// of uint32 stamps); larger position×state spaces fall back to a hash set.
const maxStampCells = 1 << 22

// dfsState is what the set-up, the root scan and the merge of a parallel call
// build and its tasks only read: pooled with the dfsShared of a one-shot
// MineDFS, a Prepared's own when it is kept.
type dfsState struct {
	arena    []uint64   // the row blocks of every accepted sequence
	cache    []seqCache // per input sequence, its row block in arena
	prefixes []node     // the tasks' prefixes (first items, or a Prepared's deepest), largest projected database first
	projs    []int32    // their projected databases, back to back
}

// dfsShared is the pooled state of one call: a MineDFS's or a Prepare's
// dfsState — written range by range during the set-up and by the calling
// goroutine alone during the merge, read-only while the tasks or keepLevel's
// scans run; idle under a Prepared.Mine — and the call's workers and tasks.
type dfsShared struct {
	dfsState
	miners []dfsMiner   // one per worker; worker r sets up db[lo:hi)
	tasks  []node       // the prefixes that reach the call's sigma, in their order
	parts  []part       // the merge's input
	next   atomic.Int64 // index of the next task to pull
}

// node is a prefix of one to three items with the weight of the sequences in
// its projected database, projs[off:end] of the dfsState that holds it — or,
// kept as a pattern, with its support and no database.
type node struct {
	items    [keptDepth]dict.ItemID // dict.None after the prefix's last item
	off, end int
	support  int64
}

// words is the length of n's projected database.
func (n *node) words() int { return n.end - n.off }

// db returns the projected database of n, one of st's prefixes.
func (st *dfsState) db(n *node) []int32 { return st.projs[n.off:n.end] }

// part is one range's share of a first item's projected database, a buffer of
// the range's root frame, until the merge copies it into projs.
type part struct {
	item dict.ItemID
	buf  []int32
}

// prefix returns n's items.
func (n *node) prefix() []dict.ItemID {
	k := 1
	for k < len(n.items) && n.items[k] != dict.None {
		k++
	}
	return n.items[:k]
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
// items found at this depth and one projected-database buffer per item, and
// the prefix's support if it is reportable (see scan).
type frame struct {
	order      []uint64 // packed (item<<32 | slot), sorted ascending by scan
	exps       []expBuf
	reportable bool
	support    int64
}

// expBuf accumulates the projected database of one expansion item as flat
// int32 records: [seqIdx, snapCount, cell, cell, ...], and the weight of the
// sequences it holds.
type expBuf struct {
	buf      []int32
	support  int64
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

	rows      fst.RowLayout // where a row of a row block holds each matrix (and the item)
	earlyStop bool          // the rows hold live (opts.EarlyStopping under a pivot)
	stateBits uint          // cell = pos<<stateBits | state
	limit     dict.ItemID   // expansion items must be <= limit (frequency ∧ pivot)
	sh        *dfsState     // arena and cache

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
			need += (len(ws.Items) + 1) * m.rows.Stride
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
	sharedPool.Put(sh)
}

// prepare is the half of the parallel miner that sigma enters only through the
// root scan's frequency cut: every worker's set-up and root scan of its range
// in sh, then the merge of the ranges' first items into sh's prefixes.
// False: cancelled.
func (sh *dfsShared) prepare() bool {
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
	// item's projected database is its run of parts copied back to back into
	// projs, its support the sum of theirs.
	parts := sh.parts[:0]
	total := 0
	for r := range sh.miners {
		fr := &sh.miners[r].sc.frames[0]
		for _, p := range fr.order {
			buf := fr.exps[uint32(p)].buf
			parts = append(parts, part{item: dict.ItemID(p >> 32), buf: buf})
			total += len(buf)
		}
	}
	slices.SortStableFunc(parts, func(a, b part) int { return cmp.Compare(a.item, b.item) })
	sh.projs = slices.Grow(sh.projs[:0], total)
	sh.prefixes = sh.prefixes[:0]
	for i := 0; i < len(parts); {
		root := node{items: [keptDepth]dict.ItemID{parts[i].item}, off: len(sh.projs)}
		for ; i < len(parts) && parts[i].item == root.items[0]; i++ {
			root.support += m.prefixSupport(parts[i].buf)
			sh.projs = append(sh.projs, parts[i].buf...)
		}
		root.end = len(sh.projs)
		sh.prefixes = append(sh.prefixes, root)
	}
	clear(parts) // they point into the workers' pooled frames
	sh.parts = parts[:0]
	slices.SortFunc(sh.prefixes, func(a, b node) int { return cmp.Compare(b.words(), a.words()) })
	return true
}

// mine is the half that depends on sigma: the prefixes of st whose support
// reaches it (and whose items pass the workers' frequency and pivot cut) are
// tasks, pulled in st's order, largest first, from one counter by sh's
// workers, which share only st, read-only, and add to what the workers hold.
// SortPatterns is a total order on distinct patterns, so the concatenated
// outputs sort to the single-threaded result.
func (sh *dfsShared) mine(st *dfsState, split *SplitStats) []Pattern {
	m := &sh.miners[0]
	tasks, total := sh.tasks[:0], 0
	for i := range st.prefixes {
		if n := &st.prefixes[i]; m.reaches(n) {
			tasks = append(tasks, *n)
			total += n.words()
		}
	}
	sh.tasks = tasks
	if len(tasks) > 0 {
		split.Tasks = len(tasks)
		split.LargestTaskShare = float64(tasks[0].words()) / float64(total)
		sh.pull(len(tasks), func(sh *dfsShared, r, i int) {
			w, t := &sh.miners[r], &sh.tasks[i]
			w.sc.prefix = append(w.sc.prefix[:0], t.prefix()...)
			w.expand(len(w.sc.prefix), w.sh.db(t)) // w.sh is st
		})
	}
	out := m.out
	for r := 1; r < len(sh.miners); r++ {
		out = append(out, sh.miners[r].out...)
	}
	return out
}

// pull runs do(sh, r, i) for every i < n on up to n of sh's workers, worker r
// pulling the next i from one counter until none is left or the call is
// cancelled.
func (sh *dfsShared) pull(n int, do func(sh *dfsShared, r, i int)) {
	sh.next.Store(0)
	fanOut(min(len(sh.miners), n), func(r int) {
		for !sh.miners[r].stopped() {
			i := int(sh.next.Add(1)) - 1
			if i >= n {
				return
			}
			do(sh, r, i)
		}
	})
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

// setUp runs one Rows pass per sequence of the worker's range, writing the
// sequence's row block in place at the tail of the range's arena region (the
// space is kept only if the sequence has an accepting run), and collects the
// root projected database of the range.
func (m *dfsMiner) setUp() {
	sc := m.sc
	initCell := int32(m.fst.Initial()) // pos 0 → cell = state
	stride := m.rows.Stride
	used := m.base
	live := dict.None // the pivot of the live rows, if the block holds them
	if m.earlyStop {
		live = m.opts.Pivot
	}
	for i := m.lo; i < m.hi; i++ {
		if i&1023 == 1023 && m.stopped() {
			return
		}
		T := m.db[i].Items
		block := m.sh.arena[used : used+(len(T)+1)*stride]
		if len(T) == 0 || !m.fst.Rows(T, live, block) {
			continue
		}
		m.sh.cache[i] = seqCache{rows: used, weight: m.db[i].Weight}
		used += len(block)
		sc.rootProj = append(sc.rootProj, int32(i), 1, initCell)
	}
}

// prefixSupport sums the weights of the sequences present in the projected
// database (antimonotone pruning quantity). Below the root, scan counts it.
func (m *dfsMiner) prefixSupport(proj []int32) int64 {
	var s int64
	for i := 0; i < len(proj); i += 2 + int(proj[i+1]) {
		s += m.db[proj[i]].Weight
	}
	return s
}

// reaches reports whether the prefix of n is one the miner's sigma reaches:
// n's support at least sigma and every item expandable.
func (m *dfsMiner) reaches(n *node) bool {
	if n.support < m.sigma {
		return false
	}
	for _, w := range n.prefix() {
		if !m.expandable(w) {
			return false
		}
	}
	return true
}

// expandable reports whether output item w may grow the prefix.
func (m *dfsMiner) expandable(w dict.ItemID) bool { return w <= m.limit }

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
	fr := m.scan(depth, proj)
	if fr.reportable && fr.support >= m.sigma {
		m.out = append(m.out, Pattern{Items: append([]dict.ItemID(nil), sc.prefix[:depth]...), Freq: fr.support})
	}

	// Recurse on sufficiently supported expansions, in ascending item order.
	for _, p := range fr.order {
		w := dict.ItemID(p >> 32)
		e := &fr.exps[uint32(p)]
		if e.support < m.sigma {
			continue
		}
		sc.prefix = append(sc.prefix[:depth], w)
		m.expand(depth+1, e.buf)
	}
}

// scan simulates every snapshot of proj, the projected database of the prefix
// sc.prefix[:depth], one output item further and returns the depth's frame:
// the distinct expansion items in ascending order, each with its projected
// database and support, and — if the prefix is reportable (non-empty and
// holding any pivot) — its support: the weight of the sequences with a
// snapshot of proj whose finish bit is set, checked before any filter. Under
// early stopping, a prefix without the pivot walks only live cells and
// projects a target that is not live into the pivot's child alone.
func (m *dfsMiner) scan(depth int, proj []int32) *frame {
	sc := m.sc
	for len(sc.frames) <= depth {
		sc.frames = append(sc.frames, frame{})
	}
	fr := &sc.frames[depth]
	fr.order = fr.order[:0]

	hasPivot := m.opts.Pivot != dict.None && slices.Contains(sc.prefix[:depth], m.opts.Pivot)
	earlyStop := m.earlyStop && !hasPivot
	fr.reportable = depth > 0 && (m.opts.Pivot == dict.None || hasPivot)
	fr.support = 0

	sc.itemGen++
	if sc.itemGen == 0 {
		clear(sc.itemStamp)
		sc.itemGen = 1
	}

	sb := m.stateBits
	mask := int32(1)<<sb - 1
	stride, packed := m.rows.Stride, m.rows.Packed
	// Matrix x of the cell (pos, q) is bit q%64+xS of rows[pos*stride+q/64+xW];
	// accept is bit q%64 of word q/64.
	finW, finS := m.rows.Word[fst.Finish], uint32(m.rows.Shift[fst.Finish])
	liveW, liveS := m.rows.Word[fst.Live], uint32(m.rows.Shift[fst.Live])
	gateW, gateS := m.rows.Word[fst.Prod], uint32(m.rows.Shift[fst.Prod]) // the matrix a cell must be in to be walked
	if earlyStop {
		gateW, gateS = liveW, liveS
	}

	for pi, n := 0, 0; pi < len(proj); n++ {
		if n&1023 == 1023 && m.stopped() {
			break // the caller drops the partial frame
		}
		seq := proj[pi]
		nsn := int(proj[pi+1])
		snaps := proj[pi+2 : pi+2+nsn]
		pi += 2 + nsn

		c := m.sh.cache[seq]
		rows := m.sh.arena[c.rows:]
		var T []dict.ItemID // packed rows hold the items themselves
		if !packed {
			T = m.db[seq].Items
		}

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
		complete := !fr.reportable
		for _, cell := range snaps {
			q := uint32(cell & mask)
			row, b := rows[int(cell>>sb)*stride+int(q>>6):], q&63
			if !complete && row[finW]&(1<<(b+finS)) != 0 {
				fr.support += c.weight
				complete = true
			}
			if row[gateW]&(1<<(b+gateS)) != 0 && m.markSnap(cell) {
				sc.stack = append(sc.stack, cell)
			}
		}

		// Simulate: follow ε-output transitions and scatter every output
		// target into the projected database of its item. A cell reached
		// twice is stored twice; the next level's markSnap drops the repeat.
		// Only productive cells are pushed — a cell whose prod bit is clear
		// projects nothing and leads only to such cells — so no popped cell
		// sits at the end of T (prod's last row is empty). Under early
		// stopping only live cells are: one that is not cannot output the
		// pivot, nor can any cell it leads to.
		for len(sc.stack) > 0 {
			cell := sc.stack[len(sc.stack)-1]
			sc.stack = sc.stack[:len(sc.stack)-1]
			pos := int(cell >> sb)
			var t dict.ItemID
			if packed { // one word per row, the item in its high half
				t = dict.ItemID(rows[pos] >> 32)
			} else {
				t = T[pos]
			}
			next := rows[(pos+1)*stride:]
			for _, tr := range m.fst.Firing(int(cell&mask), t) {
				to := m.fst.To(tr)
				at, b := next[uint32(to)>>6:], uint32(to)&63
				if at[0]&(1<<b) == 0 {
					continue // target cannot reach acceptance
				}
				nextCell := int32(pos+1)<<sb | to
				single, set := m.fst.OutputsFor(tr, t)
				if earlyStop && at[liveW]&(1<<(b+liveS)) == 0 {
					// The target cannot output the pivot any more: it
					// supports only the child that adds the pivot now.
					if single == m.opts.Pivot || slices.Contains(set, m.opts.Pivot) {
						m.project(fr, m.opts.Pivot, seq, c.weight, nextCell)
					}
					continue
				}
				if single != dict.None {
					m.project(fr, single, seq, c.weight, nextCell)
				} else if set == nil {
					if at[gateW]&(1<<(b+gateS)) != 0 && m.markSnap(nextCell) {
						sc.stack = append(sc.stack, nextCell)
					}
				}
				for _, w := range set {
					m.project(fr, w, seq, c.weight, nextCell)
				}
			}
		}
	}

	slices.Sort(fr.order)
	return fr
}

// project appends cell to sequence seq's snapshots in the projected database
// of expansion item w at frame fr, opening the item's buffer on first use and
// the sequence's record, which adds its weight to the item's support.
func (m *dfsMiner) project(fr *frame, w dict.ItemID, seq int32, weight int64, cell int32) {
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
		fr.exps[slot].support = 0
		fr.exps[slot].lastSeq = -1
	}
	e := &fr.exps[sc.itemSlot[w]]
	if e.lastSeq != seq {
		e.lastSeq = seq
		e.countIdx = int32(len(e.buf) + 1)
		e.buf = append(e.buf, seq, 0)
		e.support += weight
	}
	e.buf = append(e.buf, cell)
	e.buf[e.countIdx]++
}
