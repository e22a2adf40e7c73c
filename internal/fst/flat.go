package fst

import (
	"math/bits"
	"slices"
	"sync"

	"seqmine/internal/dict"
)

// FST is a compiled pattern expression: a finite state transducer over the
// item vocabulary of a Dictionary, in the flat form every simulator runs on.
// The per-state transition lists are contiguous int32 arrays, the output
// behaviour of every transition is pre-classified so the common single-item
// outputs need no slice allocation, and "which transitions fire on item t" is
// answered by one step table instead of a label test per transition:
//
//   - items are grouped into match-equivalence classes — two items share a
//     class iff no label of this FST tells them apart (classOf);
//   - per (class, state q) the table holds the bitset of predecessor states
//     (those with a matching transition into q), the same restricted to
//     ε-output and to output transitions, and the list of q's own matching
//     transitions.
//
// State sets are bitsets ([]uint64 rows of Words() words). Every reachability
// pass of the system runs backward, so one step is an OR of the predecessor
// sets of the states still live (Reach), and the DFS walks iterate only
// transitions that fire (Firing).
//
// When a row is one word (≤ 64 states), Reach and Rows do not visit live
// states one by one: a byte-sliced table (byteTab) holds the union of the
// masks of every 8-state group's subsets, so a step is one probe per byte of
// the row, at most ⌈states/8⌉, however many states are live. It is exact,
// since a union distributes over the bytes.
//
// The label-level graph the tables are built from stays behind them as the
// reference of Transitions; no simulator reads it. An FST is immutable after
// Compile and safe for concurrent use.
type FST struct {
	dict      *dict.Dictionary
	numStates int
	initial   int
	words     int      // bitset words per state-set row
	finalBits []uint64 // bitset of final states

	// Transition arrays, grouped by source state: state q's transitions are
	// indices off[q]..off[q+1].
	off []int32
	to  []int32
	// outKind classifies the output behaviour (see the outXxx constants).
	outKind []uint8
	// item is the label's referenced item for constant outputs and upTo sets.
	item []dict.ItemID
	// upTo holds, for outUpTo transitions, the precomputed output set per
	// input item (anc(t) ∩ desc(w)); nil entries mean the label does not
	// match that item. Indexed by transition, then by item fid.
	upTo [][][]dict.ItemID

	// The step table. classOf maps an item fid to its class (nil when the FST
	// has only dots: every item is in class 0); cell (c, q) is index
	// c*numStates+q. pred holds 2*words words per cell: the bitset of
	// states with a transition into q that matches class c, then the same over
	// ε-output transitions only. outPred holds words words per cell: the same
	// over output transitions only, apart so that pred's stride stays what
	// Reach reads. fire[fireOff[cell]:fireOff[cell+1]] lists q's transitions
	// that match c, in transition order.
	classOf []int32
	pred    []uint64
	outPred []uint64
	fireOff []int32
	fire    []int32

	// The byte-sliced step table of a one-word FST (nil otherwise; see
	// buildByteTab). Class c's block starts at c*3*byteKind and holds three
	// kinds of byteKind = ⌈numStates/8⌉·256 words each: the predecessor
	// masks of pred, those of pred's ε-output half, those of outPred. Entry
	// j*256+v of a kind is the union of its masks of the states 8j+b, b ∈ v.
	byteTab  []uint64
	byteKind int

	// absorbing: every final state consumes any input over ε-output
	// transitions into final states (see FinalsAbsorb).
	absorbing bool

	// sigmaViews caches the frequency-filtered views built by Sigma, one per
	// minimum support threshold.
	sigmaMu    sync.Mutex
	sigmaViews map[int64]*SigmaView

	g *graph // the label-level reference behind Transitions
}

// Output behaviour classes of a transition, precomputed from its Label.
const (
	// outNone produces no output (ε).
	outNone uint8 = iota
	// outInput outputs exactly the input item.
	outInput
	// outConst outputs exactly the label's item (forced generalization).
	outConst
	// outAncestors outputs all ancestors of the input item (captured dot with
	// generalization); the set is the dictionary's shared ancestor slice.
	outAncestors
	// outUpTo outputs anc(t) ∩ desc(item) (captured generalization below a
	// hierarchy item); sets are precomputed per input item in FST.upTo.
	outUpTo
)

// newFST builds the tables of graph g over dictionary d.
func newFST(g *graph, d *dict.Dictionary) *FST {
	n := len(g.final)
	f := &FST{
		g:         g,
		dict:      d,
		numStates: n,
		initial:   g.initial,
		words:     (n + 63) / 64,
		finalBits: make([]uint64, (n+63)/64),
		off:       make([]int32, n+1),
	}
	total := 0
	for q := 0; q < n; q++ {
		if g.final[q] {
			f.finalBits[q>>6] |= 1 << (uint(q) & 63)
		}
		total += len(g.trans[q])
	}
	f.to = make([]int32, 0, total)
	f.outKind = make([]uint8, 0, total)
	f.item = make([]dict.ItemID, 0, total)
	f.upTo = make([][][]dict.ItemID, 0, total)
	vocab := d.Size()
	// tests are the distinct item tests of the labels; testOf names each
	// transition's test, -1 for a dot, which matches every item.
	var tests []itemTest
	testOf := make([]int32, 0, total)
	for q := 0; q < n; q++ {
		f.off[q] = int32(len(f.to))
		for _, tr := range g.trans[q] {
			f.to = append(f.to, int32(tr.To))
			f.outKind = append(f.outKind, classifyOutput(tr.Label))
			f.item = append(f.item, tr.Label.Item)
			f.upTo = append(f.upTo, upToSets(d, tr.Label, vocab))
			testOf = append(testOf, testIndex(&tests, tr.Label))
		}
	}
	f.off[n] = int32(len(f.to))
	f.buildStepTable(tests, testOf, vocab)
	f.buildByteTab()
	f.absorbing = f.finalsAbsorb()
	return f
}

// itemTest is the input side of an item label: which items it matches,
// whatever it outputs.
type itemTest struct {
	item  dict.ItemID
	exact bool
}

func (it itemTest) passes(d *dict.Dictionary, t dict.ItemID) bool {
	return t == it.item || !it.exact && d.IsA(t, it.item)
}

// testIndex returns the index in tests of label l's item test, appending it
// when new; -1 for a dot.
func testIndex(tests *[]itemTest, l Label) int32 {
	if l.Kind == KindDot {
		return -1
	}
	test := itemTest{item: l.Item, exact: l.Exact}
	for i, have := range *tests {
		if have == test {
			return int32(i)
		}
	}
	*tests = append(*tests, test)
	return int32(len(*tests) - 1)
}

// buildStepTable groups the items 0..vocab into classes by the set of tests
// they pass — at most min(vocab+1, 2^len(tests)) classes, numbered in order of
// first appearance — and fills in the per-(class, state) masks and firing
// lists. Fid 0 (dict.None) passes no test, so class 0 is "only dots match".
func (f *FST) buildStepTable(tests []itemTest, testOf []int32, vocab int) {
	f.fireOff = []int32{0}
	passed := make([]byte, (len(tests)+7)/8)
	if len(tests) == 0 {
		f.addClass(passed, testOf)
		return
	}
	f.classOf = make([]int32, vocab+1)
	classes := map[string]int32{}
	for t := 0; t <= vocab; t++ {
		clear(passed)
		for i, test := range tests {
			if test.passes(f.dict, dict.ItemID(t)) {
				passed[i>>3] |= 1 << (uint(i) & 7)
			}
		}
		c, ok := classes[string(passed)]
		if !ok {
			c = int32(len(classes))
			classes[string(passed)] = c
			f.addClass(passed, testOf)
		}
		f.classOf[t] = c
	}
}

// addClass appends the step-table cells of a new class whose items pass
// exactly the tests set in passed.
func (f *FST) addClass(passed []byte, testOf []int32) {
	w := f.words
	base, outBase := len(f.pred), len(f.outPred)
	f.pred = append(f.pred, make([]uint64, f.numStates*2*w)...)
	f.outPred = append(f.outPred, make([]uint64, f.numStates*w)...)
	for q := 0; q < f.numStates; q++ {
		for tr := f.off[q]; tr < f.off[q+1]; tr++ {
			if i := testOf[tr]; i >= 0 && passed[i>>3]&(1<<(uint(i)&7)) == 0 {
				continue
			}
			f.fire = append(f.fire, tr)
			cell := base + int(f.to[tr])*2*w + q>>6
			f.pred[cell] |= 1 << (uint(q) & 63)
			if f.outKind[tr] == outNone {
				f.pred[cell+w] |= 1 << (uint(q) & 63)
			} else {
				f.outPred[outBase+int(f.to[tr])*w+q>>6] |= 1 << (uint(q) & 63)
			}
		}
		f.fireOff = append(f.fireOff, int32(len(f.fire)))
	}
}

// maxByteTabWords caps the byte-sliced table at 256 KiB per FST, the size
// of a core's L2 cache on common hardware: a step that misses cache loses
// what the table saves. The table holds classes × ⌈states/8⌉ × 768 words, so
// the cap is only reached by expressions listing dozens of distinct items;
// the paper's expressions need 768–5,376 words.
const maxByteTabWords = 1 << 15

// buildByteTab builds the byte-sliced step table when a row is one word and
// the table fits maxByteTabWords: entry v of a chunk is entry v&(v-1) plus
// the mask of the state of v's lowest bit.
func (f *FST) buildByteTab() {
	n, classes := f.numStates, f.numClasses()
	k := (n + 7) / 8 * 256
	if f.words != 1 || classes*3*k > maxByteTabWords {
		return
	}
	f.byteTab, f.byteKind = make([]uint64, classes*3*k), k
	kinds := [3]struct {
		masks  []uint64
		stride int
	}{{f.pred, 2}, {f.pred[1:], 2}, {f.outPred, 1}}
	for c := 0; c < classes; c++ {
		for kind, src := range kinds {
			tab := f.byteTab[(3*c+kind)*k:][:k]
			for i := range tab {
				v := i & 0xff // chunk i>>8, value v; entry 0 of a chunk stays empty
				if v == 0 {
					continue
				}
				r := tab[i&^0xff|v&(v-1)]
				if q := i>>8<<3 + bits.TrailingZeros8(uint8(v)); q < n {
					r |= src.masks[(c*n+q)*src.stride]
				}
				tab[i] = r
			}
		}
	}
}

// numClasses returns the number of item classes of the step table.
func (f *FST) numClasses() int { return (len(f.fireOff) - 1) / f.numStates }

// finalsAbsorb decides FinalsAbsorb. It asks for the greatest set of final
// states in which every state has, for every item class, an ε-output
// transition back into the set; that set is all final states iff the final
// states themselves qualify, so one check per class decides it: the
// ε-predecessors of the final states must cover them.
func (f *FST) finalsAbsorb() bool {
	w := f.words
	row := make([]uint64, w)
	for c := 0; c < f.numClasses(); c++ {
		pullBack(f.pred[c*f.numStates*2*w+w:], 2*w, f.finalBits, row)
		for j, final := range f.finalBits {
			if final&^row[j] != 0 {
				return false
			}
		}
	}
	return true
}

// classifyOutput maps a label to its output behaviour class, mirroring
// Label.Outputs.
func classifyOutput(l Label) uint8 {
	switch {
	case !l.Captured:
		return outNone
	case l.Kind == KindDot && !l.Generalize:
		return outInput
	case l.Kind == KindDot && l.Generalize:
		return outAncestors
	case l.ForceGen:
		return outConst
	case l.Exact:
		return outInput
	case l.Generalize:
		return outUpTo
	default:
		return outInput
	}
}

// upToSets precomputes the outUpTo output sets per input item.
func upToSets(d *dict.Dictionary, l Label, vocab int) [][]dict.ItemID {
	if classifyOutput(l) != outUpTo {
		return nil
	}
	sets := make([][]dict.ItemID, vocab+1)
	for t := dict.ItemID(1); int(t) <= vocab; t++ {
		if d.IsA(t, l.Item) {
			sets[t] = d.AncestorsUpTo(t, l.Item)
		}
	}
	return sets
}

// Transitions returns the outgoing transitions of state q at the label
// level, the reference the tables are checked against. The returned slice
// must not be modified.
func (f *FST) Transitions(q int) []Transition { return f.g.trans[q] }

// Dict returns the dictionary the FST was compiled against.
func (f *FST) Dict() *dict.Dictionary { return f.dict }

// NumStates returns the number of states.
func (f *FST) NumStates() int { return f.numStates }

// Initial returns the initial state.
func (f *FST) Initial() int { return f.initial }

// Words returns the number of uint64 words of one state-set bitset row.
func (f *FST) Words() int { return f.words }

// IsFinal reports whether state q is final.
func (f *FST) IsFinal(q int) bool {
	return f.finalBits[uint(q)>>6]&(1<<(uint(q)&63)) != 0
}

// FinalsAbsorb reports whether every final state can consume any input,
// producing no output, and end in a final state. Then a run that ends in a
// final state extends over any further input with its output unchanged, which
// is what makes cutting a sequence's irrelevant tail sound (D-SEQ's ρk).
func (f *FST) FinalsAbsorb() bool { return f.absorbing }

// class returns the first step-table cell of item t's class.
func (f *FST) class(t dict.ItemID) int {
	if f.classOf == nil {
		return 0
	}
	return int(f.classOf[t]) * f.numStates
}

// Firing returns the transitions of state q that match input item t, in
// transition order. The slice is shared and must not be modified.
func (f *FST) Firing(q int, t dict.ItemID) []int32 {
	cell := f.class(t) + q
	return f.fire[f.fireOff[cell]:f.fireOff[cell+1]]
}

// Reach is the backward reachability pass every simulator but DESQ-DFS (see
// Rows) starts from. It fills accept with the accept matrix of T as bitset rows of Words() words —
// bit q of row i is set iff T[i:] can be consumed from state q ending in a
// final state — and reports whether the initial state accepts T. accept holds
// either all len(T)+1 rows or, for a caller that only wants the verdict, two
// rows that the pass alternates between. Every word of a row is written, so
// the buffer need not be zeroed; the pass stops at the first position no
// state accepts from, and after a false result the matrix is only partly
// filled.
func (f *FST) Reach(T []dict.ItemID, accept []uint64) bool {
	n, w := len(T), f.words
	rowMask := -1 // row i lives at (i&rowMask)*w
	if len(accept) < (n+1)*w {
		rowMask = 1
	}
	if f.byteTab != nil {
		x := f.finalBits[0]
		accept[n&rowMask] = x
		for i := n - 1; i >= 0; i-- {
			if x = lookup(f.byteTab, f.byteClass(T[i]), x); x == 0 {
				return false
			}
			accept[i&rowMask] = x
		}
		return x&(1<<uint(f.initial)) != 0
	}
	copy(accept[(n&rowMask)*w:][:w], f.finalBits)
	for i := n - 1; i >= 0; i-- {
		pred := f.pred[f.class(T[i])*2*w:]
		if pullBack(pred, 2*w, accept[((i+1)&rowMask)*w:][:w], accept[(i&rowMask)*w:][:w]) == 0 {
			return false
		}
	}
	return accept[uint(f.initial)>>6]&(1<<(uint(f.initial)&63)) != 0
}

// byteClass returns where item t's class starts in the byte-sliced table.
func (f *FST) byteClass(t dict.ItemID) int {
	if f.classOf == nil {
		return 0
	}
	return int(f.classOf[t]) * 3 * f.byteKind
}

// The matrices of a row block (see Rows), in the order they sit in a row.
const (
	Accept = iota
	Prod
	Finish
	Live
)

// RowLayout is where Rows puts the matrices of a row block: bit q of matrix m
// in row i is bit Shift[m] + q%64 of block[i*Stride + Word[m] + q/64]. Accept
// is always bit q%64 of word q/64. An FST of at most 8 states on the
// byte-sliced table has packed rows: one word per position, accept, prod,
// finish and live in its four low bytes and T[i] in its high 32 bits (0 in
// the last row). Every other FST has a bitset of Words() words per matrix,
// accept | prod | finish, then live when the block holds it.
type RowLayout struct {
	Stride      int
	Packed      bool
	Word, Shift [Live + 1]int
}

// maxPackedStates is the most states a packed row holds: a byte per matrix.
const maxPackedStates = 8

// RowLayout returns the layout of f's row blocks, with live rows or without.
func (f *FST) RowLayout(live bool) RowLayout {
	if f.byteTab != nil && f.numStates <= maxPackedStates {
		return RowLayout{Stride: 1, Packed: true, Shift: [Live + 1]int{0, 8, 16, 24}}
	}
	w := f.words
	l := RowLayout{Stride: 3 * w, Word: [Live + 1]int{0, w, 2 * w, 3 * w}}
	if live {
		l.Stride += w
	}
	return l
}

// Rows is the one backward pass DESQ-DFS sets a sequence up with. It writes
// the row block of T into block, len(T)+1 rows at the layout RowLayout(k !=
// dict.None) gives, and reports whether the initial state accepts T. Bit q of
// row i, for the suffix T[i:], is set
//
//   - in accept iff T[i:] can be consumed from state q into a final state;
//   - in finish iff it can be over ε-output transitions only;
//   - in prod iff an ε-output path from q reaches an output transition whose
//     target accepts the rest of T — iff a run from there can still output
//     an item;
//   - in live, for a pivot k, iff an accepting run from q takes an output
//     transition at a position j >= i whose item T[j] has k among its
//     ancestors — iff it can still output k, since every output of a
//     transition is an ancestor of its input item.
//
// One loop fills all four from row i+1:
//
//	accept[n] = F,  accept[i] = pullBack_any(accept[i+1])
//	finish[n] = F,  finish[i] = pullBack_ε(finish[i+1])
//	prod[n] = ∅,    prod[i] = pullBack_out(accept[i+1]) ∪ pullBack_ε(prod[i+1])
//	live[n] = ∅,    live[i] = pullBack_any(live[i+1]) ∪ (k ∈ anc(T[i]) ? pullBack_out(accept[i+1]) : ∅)
//
// so accept = prod ∪ finish and live ⊆ prod row by row. Every word of a
// written row is written, so the block need not be zeroed; the pass stops at
// the first empty accept row, and after a false result the block is only
// partly written.
func (f *FST) Rows(T []dict.ItemID, k dict.ItemID, block []uint64) bool {
	if f.byteTab == nil {
		return f.pullRows(T, k, block)
	}
	tab, kind := f.byteTab, f.byteKind
	l := f.RowLayout(k != dict.None)
	a, p, fin, live, t := f.finalBits[0], uint64(0), f.finalBits[0], uint64(0), dict.None
	for i := len(T); ; i-- {
		if l.Packed {
			block[i] = a | p<<8 | fin<<16 | live<<24 | uint64(t)<<32
		} else {
			row := block[i*l.Stride:][:l.Stride]
			row[Accept], row[Prod], row[Finish] = a, p, fin
			if k != dict.None {
				row[Live] = live
			}
		}
		if i == 0 {
			return a&(1<<uint(f.initial)) != 0
		}
		t = T[i-1]
		at := f.byteClass(t)
		out := lookup(tab, at+2*kind, a)
		if k != dict.None {
			live = lookup(tab, at, live)
			if slices.Contains(f.dict.Ancestors(t), k) {
				live |= out
			}
		}
		p = out | lookup(tab, at+kind, p)
		fin = lookup(tab, at+kind, fin)
		if a = lookup(tab, at, a); a == 0 {
			return false
		}
	}
}

// pullRows is Rows on the pullBack path, a bitset of Words() words per
// matrix.
func (f *FST) pullRows(T []dict.ItemID, k dict.ItemID, block []uint64) bool {
	n, w, stride := len(T), f.words, f.RowLayout(k != dict.None).Stride
	row := func(i, m int) []uint64 { return block[i*stride+m*w:][:w] }
	copy(row(n, Accept), f.finalBits)
	clear(row(n, Prod))
	copy(row(n, Finish), f.finalBits)
	if k != dict.None {
		clear(row(n, Live))
	}
	for i := n - 1; i >= 0; i-- {
		c := f.class(T[i])
		all, eps, out := f.pred[c*2*w:], f.pred[c*2*w+w:], f.outPred[c*w:]
		if k != dict.None {
			pullBack(all, 2*w, row(i+1, Live), row(i, Live))
			if slices.Contains(f.dict.Ancestors(T[i]), k) {
				orPullBack(out, w, row(i+1, Accept), row(i, Live))
			}
		}
		pullBack(out, w, row(i+1, Accept), row(i, Prod))
		orPullBack(eps, 2*w, row(i+1, Prod), row(i, Prod))
		pullBack(eps, 2*w, row(i+1, Finish), row(i, Finish))
		if pullBack(all, 2*w, row(i+1, Accept), row(i, Accept)) == 0 {
			return false
		}
	}
	return block[uint(f.initial)>>6]&(1<<(uint(f.initial)&63)) != 0
}

// lookup is one backward step on the kind of the byte-sliced table that
// starts at tab[at]: the union of the predecessor masks of the states in row
// x, one probe per byte of x.
func lookup(tab []uint64, at int, x uint64) uint64 {
	r := tab[at+int(x&0xff)]
	for x >>= 8; x != 0; x >>= 8 {
		at += 256
		r |= tab[at+int(x&0xff)]
	}
	return r
}

// pullBack is one backward step: row becomes the union of the predecessor
// sets of the states in next, where state q's set is pred[q*stride:][:len(row)].
// It returns the OR of row's words (zero iff no state is left).
func pullBack(pred []uint64, stride int, next, row []uint64) (live uint64) {
	for j := range row {
		var r uint64
		for k, word := range next {
			for ; word != 0; word &= word - 1 {
				r |= pred[(k<<6+bits.TrailingZeros64(word))*stride+j]
			}
		}
		row[j] = r
		live |= r
	}
	return live
}

// orPullBack is pullBack adding to row instead of overwriting it.
func orPullBack(pred []uint64, stride int, next, row []uint64) {
	for j := range row {
		r := row[j]
		for k, word := range next {
			for ; word != 0; word &= word - 1 {
				r |= pred[(k<<6+bits.TrailingZeros64(word))*stride+j]
			}
		}
		row[j] = r
	}
}

// CanAccept reports whether the FST has at least one accepting run for T: the
// Reach pass over two rows on the stack, so it allocates nothing (up to 256
// states). A sequence that cannot reach acceptance produces no candidate
// subsequences and therefore no pivot items.
func (f *FST) CanAccept(T []dict.ItemID) bool {
	var stack [8]uint64
	rows := stack[:]
	if 2*f.words > len(stack) {
		rows = make([]uint64, 2*f.words)
	}
	return f.Reach(T, rows[:2*f.words])
}

// OutputsFor returns the output set of transition tr for input item t, in one
// of two forms: a single output item (set == nil), or a shared sorted set that
// must not be modified. Both results are zero for ε-output transitions. tr
// must be one of Firing(q, t).
func (f *FST) OutputsFor(tr int32, t dict.ItemID) (single dict.ItemID, set []dict.ItemID) {
	switch f.outKind[tr] {
	case outNone:
		return dict.None, nil
	case outInput:
		return t, nil
	case outConst:
		return f.item[tr], nil
	case outAncestors:
		return dict.None, f.dict.Ancestors(t)
	default:
		return dict.None, f.upTo[tr][t]
	}
}

// NumTransitions returns the total number of transitions.
func (f *FST) NumTransitions() int { return len(f.to) }

// To returns the target state of transition tr.
func (f *FST) To(tr int32) int32 { return f.to[tr] }
