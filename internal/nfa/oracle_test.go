package nfa

// The parent commit's candidate-NFA implementation, kept verbatim (names
// prefixed) as the differential oracle of the flat kernels: a [][]Edge
// automaton, a Builder that minimizes through a map[string]int of byte
// signatures and materializes an NFA before Serialize, a per-automaton
// Deserialize and the hash-map pattern-growth miner. The flat Builder,
// decoder and Forest must reproduce its bytes and its answers exactly.

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"seqmine/internal/dict"
	"seqmine/internal/miner"
)

// oracleEdge is one labeled transition of a candidate oracleNFA. The label is a non-empty
// output set, sorted by ascending fid: the edge accepts any single item of the
// set.
type oracleEdge struct {
	Label []dict.ItemID
	To    int
}

// oracleNFA is an acyclic automaton over items; it accepts a finite set of item
// sequences (the candidate subsequences sent to one partition). State 0 is
// the root.
type oracleNFA struct {
	edges [][]oracleEdge
	final []bool
}

// NumStates returns the number of states.
func (n *oracleNFA) NumStates() int { return len(n.edges) }

// NumEdges returns the number of edges.
func (n *oracleNFA) NumEdges() int {
	c := 0
	for _, es := range n.edges {
		c += len(es)
	}
	return c
}

// IsFinal reports whether state q is accepting.
func (n *oracleNFA) IsFinal(q int) bool { return n.final[q] }

// Edges returns the outgoing edges of state q. The slice must not be
// modified.
func (n *oracleNFA) Edges(q int) []oracleEdge { return n.edges[q] }

// Accepted enumerates the distinct item sequences accepted by the oracleNFA, in
// lexicographic order. Intended for tests and small automata.
func (n *oracleNFA) Accepted() [][]dict.ItemID {
	if len(n.edges) == 0 {
		return nil
	}
	set := map[string][]dict.ItemID{}
	var cur []dict.ItemID
	var rec func(q int)
	rec = func(q int) {
		if n.final[q] && len(cur) > 0 {
			key := labelKey(cur)
			if _, ok := set[key]; !ok {
				set[key] = append([]dict.ItemID(nil), cur...)
			}
		}
		for _, e := range n.edges[q] {
			for _, w := range e.Label {
				cur = append(cur, w)
				rec(e.To)
				cur = cur[:len(cur)-1]
			}
		}
	}
	rec(0)
	out := make([][]dict.ItemID, 0, len(set))
	for _, s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return lessSeq(out[i], out[j]) })
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

func labelKey(items []dict.ItemID) string {
	buf := make([]byte, 0, len(items)*4)
	for _, v := range items {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(buf)
}

// oracleBuilder accumulates the accepting-run paths of one input sequence for one
// pivot item as a trie and turns them into a (optionally minimized) oracleNFA. A
// oracleBuilder can be Reset and reused across sequences; the map phase of D-CAND
// pools them, so the per-state and per-label storage is amortized across a
// whole input split instead of being reallocated per sequence.
type oracleBuilder struct {
	edges [][]oracleEdge
	final []bool
	// labelArena backs the edge labels. Labels are immutable once inserted,
	// so aliasing survives arena growth (older labels keep pointing into the
	// superseded backing arrays, which stay alive through them).
	labelArena []dict.ItemID

	// Minimize scratch, reused across calls.
	sigBuf   []byte
	esBuf    []oracleEdge
	classBuf []oracleEdge
}

// newOracleBuilder returns a oracleBuilder containing only the root state.
func newOracleBuilder() *oracleBuilder {
	return &oracleBuilder{
		edges: [][]oracleEdge{nil},
		final: []bool{false},
	}
}

// Empty reports whether no path has been added yet.
func (b *oracleBuilder) Empty() bool { return len(b.edges) == 1 && !b.final[0] }

// Reset returns the oracleBuilder to the empty state while keeping its storage for
// reuse. NFAs previously produced by this oracleBuilder (and their serialized
// forms' label slices) alias the oracleBuilder's arenas, so they must be fully
// consumed before Reset.
func (b *oracleBuilder) Reset() {
	for i := range b.edges {
		b.edges[i] = b.edges[i][:0]
	}
	b.edges = b.edges[:1]
	b.final = b.final[:1]
	b.final[0] = false
	b.labelArena = b.labelArena[:0]
}

// newState appends one fresh state, reusing the per-state edge slices a
// previous use of the oracleBuilder left behind.
func (b *oracleBuilder) newState() int {
	q := len(b.edges)
	if q < cap(b.edges) {
		b.edges = b.edges[:q+1]
		b.edges[q] = b.edges[q][:0]
	} else {
		b.edges = append(b.edges, nil)
	}
	b.final = append(b.final, false)
	return q
}

// AddPath inserts one accepting-run path: a sequence of non-empty output
// sets (ε sets must already be removed by the caller). Paths of length zero
// are ignored. Children are matched by a linear scan over the state's edges —
// trie fan-out is small, and the scan beats hashing the label for it.
func (b *oracleBuilder) AddPath(sets [][]dict.ItemID) {
	if len(sets) == 0 {
		return
	}
	cur := 0
	for _, set := range sets {
		next := -1
		for _, e := range b.edges[cur] {
			if labelsEqual(e.Label, set) {
				next = e.To
				break
			}
		}
		if next == -1 {
			next = b.newState()
			off := len(b.labelArena)
			b.labelArena = append(b.labelArena, set...)
			label := b.labelArena[off:len(b.labelArena):len(b.labelArena)]
			b.edges[cur] = append(b.edges[cur], oracleEdge{Label: label, To: next})
		}
		cur = next
	}
	b.final[cur] = true
}

func labelsEqual(a, b []dict.ItemID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Trie returns the accumulated automaton without suffix sharing.
func (b *oracleBuilder) Trie() *oracleNFA {
	edges := make([][]oracleEdge, len(b.edges))
	for i, es := range b.edges {
		edges[i] = append([]oracleEdge(nil), es...)
	}
	return &oracleNFA{edges: edges, final: append([]bool(nil), b.final...)}
}

// oracleCmpLabel orders labels by the little-endian byte encoding labelKey used to
// produce — the historical signature and edge order, which serialized outputs
// depend on byte-for-byte. Lexicographic LE-byte order equals numeric order
// of the byte-reversed item values.
func oracleCmpLabel(a, b []dict.ItemID) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			x, y := bits.ReverseBytes32(uint32(a[i])), bits.ReverseBytes32(uint32(b[i]))
			if x < y {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Minimize returns the automaton with equivalent suffixes merged. Because the
// trie is acyclic, a single bottom-up pass (processing states in reverse
// topological order and hashing their behaviour) yields the minimal
// deterministic automaton over output-set labels, in linear time (Revuz).
// State signatures are built in a reused byte buffer and interned with a
// non-escaping map lookup, so the pass allocates per distinct class, not per
// state or per edge.
func (b *oracleBuilder) Minimize() *oracleNFA {
	n := len(b.edges)
	order := make([]int, 0, n)
	visited := make([]bool, n)
	var topo func(q int)
	topo = func(q int) {
		visited[q] = true
		for _, e := range b.edges[q] {
			if !visited[e.To] {
				topo(e.To)
			}
		}
		order = append(order, q) // children first
	}
	topo(0)

	classOf := make([]int, n)
	for i := range classOf {
		classOf[i] = -1
	}
	signatures := map[string]int{}
	type classInfo struct {
		final    bool
		off, end int // class edges in b.classBuf (labels + class ids)
	}
	var classes []classInfo
	for _, q := range order {
		es := b.esBuf[:0]
		for _, e := range b.edges[q] {
			es = append(es, oracleEdge{Label: e.Label, To: classOf[e.To]})
		}
		slices.SortFunc(es, func(x, y oracleEdge) int {
			if c := oracleCmpLabel(x.Label, y.Label); c != 0 {
				return c
			}
			return x.To - y.To
		})
		b.esBuf = es
		// The signature encodes the state's behaviour injectively: finality,
		// then each edge's label length, label items (LE bytes, the labelKey
		// form) and target class.
		sig := b.sigBuf[:0]
		if b.final[q] {
			sig = append(sig, 'F')
		} else {
			sig = append(sig, '-')
		}
		for _, e := range es {
			sig = appendUvarint(sig, uint64(len(e.Label)))
			for _, v := range e.Label {
				sig = append(sig, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
			}
			sig = appendUvarint(sig, uint64(e.To))
		}
		b.sigBuf = sig
		if c, ok := signatures[string(sig)]; ok {
			classOf[q] = c
			continue
		}
		c := len(classes)
		signatures[string(sig)] = c
		off := len(b.classBuf)
		b.classBuf = append(b.classBuf, es...)
		classes = append(classes, classInfo{final: b.final[q], off: off, end: len(b.classBuf)})
		classOf[q] = c
	}

	// Renumber classes so the root's class is state 0 and states appear in a
	// breadth-first order from the root (deterministic output).
	rootClass := classOf[0]
	id := make([]int, len(classes))
	for i := range id {
		id[i] = -1
	}
	queue := []int{rootClass}
	id[rootClass] = 0
	next := 1
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, e := range b.classBuf[classes[c].off:classes[c].end] {
			if id[e.To] == -1 {
				id[e.To] = next
				next++
				queue = append(queue, e.To)
			}
		}
	}
	out := &oracleNFA{edges: make([][]oracleEdge, next), final: make([]bool, next)}
	for c, info := range classes {
		if id[c] == -1 {
			continue // unreachable class (cannot normally happen)
		}
		q := id[c]
		out.final[q] = info.final
		ces := b.classBuf[info.off:info.end]
		if len(ces) > 0 {
			qes := make([]oracleEdge, 0, len(ces))
			for _, e := range ces {
				qes = append(qes, oracleEdge{Label: e.Label, To: id[e.To]})
			}
			out.edges[q] = qes
		}
	}
	b.classBuf = b.classBuf[:0]
	return out
}

// Serialize encodes the oracleNFA with the depth-first scheme of the paper: edges
// are written in DFS order; the source state is omitted when it equals the
// previous edge's target, the target state is omitted when it is new, and new
// final targets carry a final marker.
func (n *oracleNFA) Serialize() []byte {
	var buf []byte
	if n.NumStates() == 0 {
		return buf
	}
	ids := make([]int, n.NumStates())
	for i := range ids {
		ids[i] = -1
	}
	ids[0] = 0
	nextID := 1
	prevTarget := 0
	var dfs func(q int)
	dfs = func(q int) {
		for _, e := range n.edges[q] {
			flags := byte(0)
			if prevTarget != q {
				flags |= flagSourceGiven
			}
			targetKnown := ids[e.To] != -1
			if targetKnown {
				flags |= flagTargetGiven
			} else if n.final[e.To] {
				flags |= flagTargetFinal
			}
			buf = append(buf, flags)
			if flags&flagSourceGiven != 0 {
				buf = appendUvarint(buf, uint64(ids[q]))
			}
			buf = appendUvarint(buf, uint64(len(e.Label)))
			for _, w := range e.Label {
				buf = appendUvarint(buf, uint64(w))
			}
			if targetKnown {
				buf = appendUvarint(buf, uint64(ids[e.To]))
				prevTarget = e.To
			} else {
				ids[e.To] = nextID
				nextID++
				prevTarget = e.To
				dfs(e.To)
			}
		}
	}
	dfs(0)
	return buf
}

// oracleDeserialize decodes an oracleNFA produced by Serialize. All labels decode into
// one arena sized by the payload (every label item occupies at least one
// encoded byte), so decoding allocates per automaton, not per edge.
func oracleDeserialize(data []byte) (*oracleNFA, error) {
	n := &oracleNFA{edges: [][]oracleEdge{nil}, final: []bool{false}}
	pos := 0
	prevTarget := 0
	byID := []int{0} // serialization id -> state index
	arena := make([]dict.ItemID, 0, len(data))
	for pos < len(data) {
		flags := data[pos]
		pos++
		source := prevTarget
		if flags&flagSourceGiven != 0 {
			v, np, err := readUvarint(data, pos)
			if err != nil {
				return nil, err
			}
			pos = np
			// Compare in uint64: converting first could overflow int and
			// slip past the bounds check.
			if v >= uint64(len(byID)) {
				return nil, fmt.Errorf("nfa: invalid source state %d", v)
			}
			source = byID[v]
		}
		count, np, err := readUvarint(data, pos)
		if err != nil {
			return nil, err
		}
		pos = np
		if count == 0 {
			return nil, errors.New("nfa: empty edge label")
		}
		// Every label item occupies at least one byte, so a count beyond the
		// remaining payload is corrupt (and would otherwise pre-allocate an
		// attacker-chosen amount of memory).
		if count > uint64(len(data)-pos) {
			return nil, fmt.Errorf("nfa: label claims %d items in %d bytes", count, len(data)-pos)
		}
		off := len(arena)
		for i := uint64(0); i < count; i++ {
			v, np, err := readUvarint(data, pos)
			if err != nil {
				return nil, err
			}
			pos = np
			arena = append(arena, dict.ItemID(v))
		}
		label := arena[off:len(arena):len(arena)]
		var target int
		if flags&flagTargetGiven != 0 {
			v, np, err := readUvarint(data, pos)
			if err != nil {
				return nil, err
			}
			pos = np
			if v >= uint64(len(byID)) {
				return nil, fmt.Errorf("nfa: invalid target state %d", v)
			}
			target = byID[v]
		} else {
			target = len(n.edges)
			n.edges = append(n.edges, nil)
			n.final = append(n.final, flags&flagTargetFinal != 0)
			byID = append(byID, target)
		}
		n.edges[source] = append(n.edges[source], oracleEdge{Label: label, To: target})
		prevTarget = target
	}
	return n, nil
}

// oracleWeighted is an oracleNFA together with the number of input sequences that sent
// it (combiner aggregation of Sec. VI-A).
type oracleWeighted struct {
	N      *oracleNFA
	Weight int64
}

// oracleMinePartition counts the candidate subsequences accepted by the weighted
// NFAs of one partition using pattern growth (Sec. VI-B) and returns the ones
// whose support reaches sigma. Each oracleNFA contributes its weight at most once
// per candidate. When pivot is non-zero, only candidates containing the pivot
// item are reported.
func oracleMinePartition(nfas []oracleWeighted, sigma int64, pivot dict.ItemID) []miner.Pattern {
	m := &oracleMiner{nfas: nfas, sigma: sigma, pivot: pivot}
	// Root projection: every non-empty oracleNFA at its root state. The state list
	// is the same for every entry, so all of them share one.
	rootState := [1]int{0}
	root := make([]projEntry, 0, len(nfas))
	for i, wn := range nfas {
		if wn.N == nil || wn.N.NumStates() == 0 {
			continue
		}
		root = append(root, projEntry{nfa: i, states: rootState[:]})
	}
	m.expand(0, root)
	miner.SortPatterns(m.out)
	return m.out
}

type projEntry struct {
	nfa    int
	states []int
}

// expTarget dedups (projection entry, item, target state) triples within one
// expansion pass. Keying by the nfa index is equivalent to the historical
// per-entry dedup map because a projection holds each oracleNFA at most once.
type expTarget struct {
	nfa, state int
	item       dict.ItemID
}

// itemExp is the projection being built for one expansion item. proj and its
// nested state slices are reused across passes at the same depth.
type itemExp struct {
	proj    []projEntry
	lastNFA int
}

// addTarget appends target state to the projection, extending the current
// oracleNFA's entry or reusing a retired one.
func (ie *itemExp) addTarget(nfa, state int) {
	if ie.lastNFA != nfa {
		if len(ie.proj) < cap(ie.proj) {
			ie.proj = ie.proj[:len(ie.proj)+1]
			pe := &ie.proj[len(ie.proj)-1]
			pe.nfa = nfa
			pe.states = pe.states[:0]
		} else {
			ie.proj = append(ie.proj, projEntry{nfa: nfa})
		}
		ie.lastNFA = nfa
	}
	pe := &ie.proj[len(ie.proj)-1]
	pe.states = append(pe.states, state)
}

// exLevel is the reusable expansion scratch of one recursion depth: maps are
// cleared (buckets kept), slices truncated, and the itemExp pool — including
// its nested projection slices — is recycled entry by entry.
type exLevel struct {
	exp     map[dict.ItemID]int // item -> index into entries[:used]
	seen    map[expTarget]bool
	items   []dict.ItemID
	entries []itemExp
	used    int
}

type oracleMiner struct {
	nfas   []oracleWeighted
	sigma  int64
	pivot  dict.ItemID
	out    []miner.Pattern
	prefix []dict.ItemID
	levels []*exLevel
}

func (m *oracleMiner) expand(depth int, proj []projEntry) {
	// Support of the prefix as a complete candidate.
	if depth > 0 {
		var freq int64
		for _, p := range proj {
			n := m.nfas[p.nfa].N
			for _, q := range p.states {
				if n.IsFinal(q) {
					freq += m.nfas[p.nfa].Weight
					break
				}
			}
		}
		if freq >= m.sigma && (m.pivot == dict.None || containsItem(m.prefix, m.pivot)) {
			m.out = append(m.out, miner.Pattern{Items: append([]dict.ItemID(nil), m.prefix...), Freq: freq})
		}
	}

	// Expansions per item, grouped into this depth's reused scratch. A child
	// call only reads its projection and writes deeper levels, so the scratch
	// stays valid while the item loop below recurses.
	if depth >= len(m.levels) {
		m.levels = append(m.levels, &exLevel{exp: map[dict.ItemID]int{}, seen: map[expTarget]bool{}})
	}
	lv := m.levels[depth]
	clear(lv.exp)
	clear(lv.seen)
	lv.items = lv.items[:0]
	lv.used = 0
	for _, p := range proj {
		n := m.nfas[p.nfa].N
		for _, q := range p.states {
			for _, e := range n.Edges(q) {
				for _, w := range e.Label {
					tg := expTarget{nfa: p.nfa, state: e.To, item: w}
					if lv.seen[tg] {
						continue
					}
					lv.seen[tg] = true
					idx, ok := lv.exp[w]
					if !ok {
						idx = lv.used
						if idx < len(lv.entries) {
							ie := &lv.entries[idx]
							ie.proj = ie.proj[:0]
							ie.lastNFA = -1
						} else {
							lv.entries = append(lv.entries, itemExp{lastNFA: -1})
						}
						lv.used++
						lv.exp[w] = idx
						lv.items = append(lv.items, w)
					}
					lv.entries[idx].addTarget(p.nfa, e.To)
				}
			}
		}
	}

	slices.Sort(lv.items)
	for _, w := range lv.items {
		es := &lv.entries[lv.exp[w]]
		var support int64
		for _, p := range es.proj {
			support += m.nfas[p.nfa].Weight
		}
		if support < m.sigma {
			continue
		}
		m.prefix = append(m.prefix, w)
		m.expand(depth+1, es.proj)
		m.prefix = m.prefix[:len(m.prefix)-1]
	}
}

func containsItem(seq []dict.ItemID, w dict.ItemID) bool {
	for _, it := range seq {
		if it == w {
			return true
		}
	}
	return false
}
