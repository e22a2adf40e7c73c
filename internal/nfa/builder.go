package nfa

import (
	"slices"

	"seqmine/internal/dict"
)

// trieNode is one state of a Builder's trie. A state has exactly one incoming
// edge, so the edge's label is stored with its target: state s is entered by
// labels[node[s-1].labEnd:node[s].labEnd]. Children form a linked list in
// insertion order (the order plain tries are serialized in).
type trieNode struct {
	first, last int32 // first and last child, -1 for none
	sibling     int32 // next child of the same parent, -1 for none
	labEnd      int32
	final       bool
}

// Builder accumulates the accepting-run paths of one input sequence for one
// pivot item as a trie and turns them into a (optionally minimized) NFA. A
// Builder can be Reset and reused across sequences; the map phase of D-CAND
// pools them, so trie, label arena, both output automata and the minimization
// scratch are amortized across a whole input split.
//
// The automata returned by Minimize and Trie live in the Builder: each stays
// valid until the Builder's next AddPath, Step, Reset or call of the same
// method.
type Builder struct {
	nodes  []trieNode
	labels []dict.ItemID

	min, trie NFA

	// Minimize scratch.
	classOf []int32  // trie state -> class (state of min)
	kids    []int32  // children of the state being classified, in label order
	hashes  []uint64 // per class
	table   []int32  // open addressing over hashes: class+1, 0 = empty
}

// NewBuilder returns a Builder containing only the root state.
func NewBuilder() *Builder {
	b := new(Builder)
	b.Reset()
	return b
}

// Reset returns the Builder to the empty state while keeping its storage.
func (b *Builder) Reset() {
	b.nodes = append(b.nodes[:0], trieNode{first: -1, last: -1, sibling: -1})
	b.labels = b.labels[:0]
}

func (b *Builder) label(s int32) []dict.ItemID {
	return b.labels[b.nodes[s-1].labEnd:b.nodes[s].labEnd]
}

// Step returns the child of trie state q (0 is the root) entered by label, a
// non-empty output set, creating it if q has none. Children are matched by a
// linear scan — trie fan-out is small, and the scan beats hashing the label.
// The label is copied into the Builder.
func (b *Builder) Step(q int32, label []dict.ItemID) int32 {
	for c := b.nodes[q].first; c >= 0; c = b.nodes[c].sibling {
		if slices.Equal(b.label(c), label) {
			return c
		}
	}
	c := int32(len(b.nodes))
	b.labels = append(b.labels, label...)
	b.nodes = append(b.nodes, trieNode{first: -1, last: -1, sibling: -1, labEnd: int32(len(b.labels))})
	if last := b.nodes[q].last; last >= 0 {
		b.nodes[last].sibling = c
	} else {
		b.nodes[q].first = c
	}
	b.nodes[q].last = c
	return c
}

// SetFinal marks trie state q as accepting: the path leading to it is one of
// the accumulated paths.
func (b *Builder) SetFinal(q int32) { b.nodes[q].final = true }

// AddPath inserts one accepting-run path: a sequence of non-empty output
// sets (ε sets must already be removed by the caller). Paths of length zero
// are ignored.
func (b *Builder) AddPath(sets [][]dict.ItemID) {
	if len(sets) == 0 {
		return
	}
	q := int32(0)
	for _, set := range sets {
		q = b.Step(q, set)
	}
	b.SetFinal(q)
}

// Trie returns the accumulated automaton without suffix sharing: the trie in
// CSR form, states and edges in insertion order.
func (b *Builder) Trie() *NFA {
	t := &b.trie
	t.reset()
	for q := range b.nodes {
		for c := b.nodes[q].first; c >= 0; c = b.nodes[c].sibling {
			t.addEdge(c, b.label(c))
		}
		t.addState(b.nodes[q].final)
	}
	return t
}

// Minimize returns the automaton with equivalent suffixes merged. Because the
// trie is acyclic, a single bottom-up pass that interns each state's
// behaviour — finality and its (label, target class) edges in cmpLabel order —
// yields the minimal deterministic automaton over output-set labels, in
// linear time (Revuz). Children are created after their parent, so descending
// state order is bottom-up. Classes are interned in an open-addressing table
// and written straight into the result's CSR arrays, so a warm Builder
// minimizes without allocating. The root's class is the last one created
// (nothing else accepts paths as long as the root's), hence NFA.root.
func (b *Builder) Minimize() *NFA {
	m := &b.min
	m.reset()
	b.hashes = b.hashes[:0]
	b.classOf = resize(b.classOf, len(b.nodes))
	size := 16
	for size < 2*len(b.nodes) {
		size *= 2
	}
	b.table = zeroed(b.table, size)
	mask := uint64(size - 1)

	for q := int32(len(b.nodes)) - 1; q >= 0; q-- {
		kids := b.kids[:0]
		for c := b.nodes[q].first; c >= 0; c = b.nodes[c].sibling {
			kids = append(kids, c)
		}
		if len(kids) > 1 {
			slices.SortFunc(kids, func(x, y int32) int { return cmpLabel(b.label(x), b.label(y)) })
		}
		b.kids = kids
		final := b.nodes[q].final
		h := uint64(len(kids)) << 1
		if final {
			h |= 1
		}
		for _, c := range kids {
			for _, w := range b.label(c) {
				h = (h ^ uint64(w)) * 0x100000001b3
			}
			h = (h ^ uint64(b.classOf[c])<<32) * 0x100000001b3
		}
		h ^= h >> 29
		slot := h & mask
		for ; b.table[slot] != 0; slot = (slot + 1) & mask {
			if c := b.table[slot] - 1; b.hashes[c] == h && b.sameClass(c, final, kids) {
				b.classOf[q] = c
				break
			}
		}
		if b.table[slot] != 0 {
			continue
		}
		b.table[slot] = int32(len(m.final)) + 1
		b.classOf[q] = int32(len(m.final))
		b.hashes = append(b.hashes, h)
		for _, c := range kids {
			m.addEdge(b.classOf[c], b.label(c))
		}
		m.addState(final)
	}
	m.root = b.classOf[0]
	return m
}

// sameClass reports whether class c of the automaton under construction has
// exactly the behaviour (final, kids).
func (b *Builder) sameClass(c int32, final bool, kids []int32) bool {
	m := &b.min
	lo, hi := m.edgeOff[c], m.edgeOff[c+1]
	if m.final[c] != final || int(hi-lo) != len(kids) {
		return false
	}
	for i, k := range kids {
		e := lo + int32(i)
		if m.to[e] != b.classOf[k] || !slices.Equal(m.label(e), b.label(k)) {
			return false
		}
	}
	return true
}
