// Package nfa implements the candidate representation of D-CAND (Sec. VI of
// the paper): the candidate subsequences that an input sequence generates for
// one pivot item are encoded as an acyclic nondeterministic finite automaton
// whose edges are labeled with output sets. The package provides trie
// construction from accepting runs, minimization of the acyclic automaton
// (suffix sharing, Revuz-style), the compact depth-first serialization of
// Sec. VI-A, and the weighted pattern-growth miner used for local mining
// (Sec. VI-B).
//
// Every automaton — a builder's trie, its minimized form, a decoded NFA, the
// forest of one pivot partition — is the same CSR structure (graph) in
// reused storage; see DESIGN.md, "Candidate NFAs".
package nfa

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"seqmine/internal/dict"
)

// graph is the CSR storage of one or more automata: state q's edges are
// edgeOff[q]..edgeOff[q+1], edge e leads to to[e] and is labeled with the
// non-empty output set labels[labOff[e]:labOff[e+1]] (the edge accepts any
// single item of the set). len(edgeOff) is states+1 and len(labOff) edges+1
// once the graph holds a state.
type graph struct {
	edgeOff []int32
	to      []int32
	labOff  []int32
	labels  []dict.ItemID
	final   []bool
}

func (g *graph) reset() {
	g.edgeOff = append(g.edgeOff[:0], 0)
	g.to = g.to[:0]
	g.labOff = append(g.labOff[:0], 0)
	g.labels = g.labels[:0]
	g.final = g.final[:0]
}

func (g *graph) label(e int32) []dict.ItemID { return g.labels[g.labOff[e]:g.labOff[e+1]] }

// addEdge appends one edge to the state currently being written; addState
// closes that state.
func (g *graph) addEdge(to int32, label []dict.ItemID) {
	g.to = append(g.to, to)
	g.labels = append(g.labels, label...)
	g.labOff = append(g.labOff, int32(len(g.labels)))
}

func (g *graph) addState(final bool) {
	g.edgeOff = append(g.edgeOff, int32(len(g.to)))
	g.final = append(g.final, final)
}

// NFA is an acyclic automaton over items; it accepts a finite set of item
// sequences (the candidate subsequences sent to one partition). An NFA is not
// safe for concurrent use: Serialize keeps its scratch in the NFA.
type NFA struct {
	graph
	root int32
	ids  []int32 // Serialize scratch: state -> serialization id
}

// NumStates returns the number of states.
func (n *NFA) NumStates() int { return len(n.final) }

// NumEdges returns the number of edges.
func (n *NFA) NumEdges() int { return len(n.to) }

// cmpLabel orders labels by the little-endian byte encoding of their items —
// the historical edge order, which serialized outputs depend on
// byte-for-byte. Lexicographic LE-byte order equals numeric order of the
// byte-reversed item values.
func cmpLabel(a, b []dict.ItemID) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			x, y := bits.ReverseBytes32(uint32(a[i])), bits.ReverseBytes32(uint32(b[i]))
			if x < y {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}

// flag bits of the serialization scheme (Sec. VI-A).
const (
	flagSourceGiven = 1 << 0 // the edge does not start at the previous edge's target
	flagTargetGiven = 1 << 1 // the edge ends in an already-serialized state
	flagTargetFinal = 1 << 2 // the (new) target state is final
)

// Serialize encodes the NFA with the depth-first scheme of the paper: edges
// are written in DFS order; the source state is omitted when it equals the
// previous edge's target, the target state is omitted when it is new, and new
// final targets carry a final marker. State ids on the wire are DFS discovery
// numbers, so the bytes depend only on the automaton's shape and edge order,
// not on how its states are numbered in memory.
func (n *NFA) Serialize() []byte { return n.AppendSerialized(nil) }

// AppendSerialized appends the serialized form to buf.
func (n *NFA) AppendSerialized(buf []byte) []byte {
	if n.NumStates() == 0 {
		return buf
	}
	n.ids = resize(n.ids, n.NumStates())
	for i := range n.ids {
		n.ids[i] = -1
	}
	n.ids[n.root] = 0
	s := serializer{n: n, buf: buf, nextID: 1, prev: n.root}
	s.dfs(n.root)
	return s.buf
}

type serializer struct {
	n      *NFA
	buf    []byte
	nextID int32
	prev   int32 // target of the previously written edge
}

func (s *serializer) dfs(q int32) {
	n := s.n
	for e := n.edgeOff[q]; e < n.edgeOff[q+1]; e++ {
		to := n.to[e]
		flags := byte(0)
		if s.prev != q {
			flags |= flagSourceGiven
		}
		known := n.ids[to] != -1
		if known {
			flags |= flagTargetGiven
		} else if n.final[to] {
			flags |= flagTargetFinal
		}
		s.buf = append(s.buf, flags)
		if flags&flagSourceGiven != 0 {
			s.buf = appendUvarint(s.buf, uint64(n.ids[q]))
		}
		label := n.label(e)
		s.buf = appendUvarint(s.buf, uint64(len(label)))
		for _, w := range label {
			s.buf = appendUvarint(s.buf, uint64(w))
		}
		s.prev = to
		if known {
			s.buf = appendUvarint(s.buf, uint64(n.ids[to]))
			continue
		}
		n.ids[to] = s.nextID
		s.nextID++
		s.dfs(to)
	}
}

// ErrCyclic reports serialized bytes that decode to an automaton with a
// cycle. Serialize never produces one; mining it would not terminate.
var ErrCyclic = errors.New("nfa: cyclic automaton")

// decoder is the reusable scratch of graph.decode.
type decoder struct {
	src, dst []int32       // per edge, in wire order
	labEnd   []int32       // edge i's label is labels[labEnd[i]:labEnd[i+1]]
	labels   []dict.ItemID // in wire order
	final    []bool        // per state
	start    []int32       // per state: CSR fill cursor
	indeg    []int32       // per state
	order    []int32       // edge indices in CSR order
	queue    []int32       // topological order
}

// resize returns s with length n, reusing its storage when it is large enough;
// the elements are unspecified. zeroed also clears them.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

func zeroed(s []int32, n int) []int32 {
	s = resize(s, n)
	clear(s)
	return s
}

// decode appends the automaton encoded in data to g and returns its root.
// States get consecutive ids from the root on, in wire (DFS discovery) order,
// and each state's edges keep their wire order. Structurally invalid or
// cyclic input returns an error and leaves g unchanged.
func (g *graph) decode(data []byte, dc *decoder) (int32, error) {
	dc.src, dc.dst, dc.labEnd, dc.labels = dc.src[:0], dc.dst[:0], append(dc.labEnd[:0], 0), dc.labels[:0]
	dc.final = append(dc.final[:0], false)
	prev := int32(0)
	for pos := 0; pos < len(data); {
		flags := data[pos]
		pos++
		source := prev
		if flags&flagSourceGiven != 0 {
			v, np, err := readUvarint(data, pos)
			if err != nil {
				return 0, err
			}
			pos = np
			// Compare in uint64: converting first could overflow and slip
			// past the bounds check.
			if v >= uint64(len(dc.final)) {
				return 0, fmt.Errorf("nfa: invalid source state %d", v)
			}
			source = int32(v)
		}
		count, np, err := readUvarint(data, pos)
		if err != nil {
			return 0, err
		}
		pos = np
		if count == 0 {
			return 0, errors.New("nfa: empty edge label")
		}
		// Every label item occupies at least one byte, so a count beyond the
		// remaining payload is corrupt.
		if count > uint64(len(data)-pos) {
			return 0, fmt.Errorf("nfa: label claims %d items in %d bytes", count, len(data)-pos)
		}
		for i := uint64(0); i < count; i++ {
			v, np, err := readUvarint(data, pos)
			if err != nil {
				return 0, err
			}
			pos = np
			dc.labels = append(dc.labels, dict.ItemID(v))
		}
		target := int32(len(dc.final))
		if flags&flagTargetGiven != 0 {
			v, np, err := readUvarint(data, pos)
			if err != nil {
				return 0, err
			}
			pos = np
			if v >= uint64(len(dc.final)) {
				return 0, fmt.Errorf("nfa: invalid target state %d", v)
			}
			target = int32(v)
		} else {
			dc.final = append(dc.final, flags&flagTargetFinal != 0)
		}
		dc.src = append(dc.src, source)
		dc.dst = append(dc.dst, target)
		dc.labEnd = append(dc.labEnd, int32(len(dc.labels)))
		prev = target
	}

	// Stable counting sort of the edges by source state. Afterwards start[q]
	// is the end of q's edges in order, i.e. the start of q+1's.
	states := len(dc.final)
	dc.start = zeroed(dc.start, states)
	dc.indeg = zeroed(dc.indeg, states)
	for i, s := range dc.src {
		dc.start[s]++
		dc.indeg[dc.dst[i]]++
	}
	sum := int32(0)
	for q, c := range dc.start {
		dc.start[q] = sum
		sum += c
	}
	dc.order = resize(dc.order, len(dc.src))
	for i, s := range dc.src {
		dc.order[dc.start[s]] = int32(i)
		dc.start[s]++
	}

	// Reject cycles (Kahn): every state must be reached with all its incoming
	// edges consumed.
	dc.queue = dc.queue[:0]
	for q, d := range dc.indeg {
		if d == 0 {
			dc.queue = append(dc.queue, int32(q))
		}
	}
	for head := 0; head < len(dc.queue); head++ {
		q := dc.queue[head]
		lo := int32(0)
		if q > 0 {
			lo = dc.start[q-1]
		}
		for _, i := range dc.order[lo:dc.start[q]] {
			t := dc.dst[i]
			if dc.indeg[t]--; dc.indeg[t] == 0 {
				dc.queue = append(dc.queue, t)
			}
		}
	}
	if len(dc.queue) != states {
		return 0, ErrCyclic
	}

	if len(g.edgeOff) == 0 {
		g.reset()
	}
	root, edge0 := int32(len(g.final)), int32(len(g.to))
	g.edgeOff, g.final = slices.Grow(g.edgeOff, states), slices.Grow(g.final, states)
	g.to, g.labOff = slices.Grow(g.to, len(dc.order)), slices.Grow(g.labOff, len(dc.order))
	g.labels = slices.Grow(g.labels, len(dc.labels))
	for _, i := range dc.order {
		g.addEdge(root+dc.dst[i], dc.labels[dc.labEnd[i]:dc.labEnd[i+1]])
	}
	for q, f := range dc.final {
		g.edgeOff = append(g.edgeOff, edge0+dc.start[q])
		g.final = append(g.final, f)
	}
	return root, nil
}

// Deserialize decodes an NFA produced by Serialize. Bytes that do not encode
// an acyclic automaton are rejected (ErrCyclic for cycles).
func Deserialize(data []byte) (*NFA, error) {
	fo := AcquireForest()
	defer fo.Release()
	n := new(NFA)
	root, err := n.decode(data, &fo.dec)
	if err != nil {
		return nil, err
	}
	n.root = root
	return n, nil
}

// Validate reports whether data decodes to an acyclic automaton, without
// keeping it: the check for bytes that enter the process from a wire or disk.
func Validate(data []byte) error {
	fo := AcquireForest()
	defer fo.Release()
	return fo.Add(data, 1)
}

func appendUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

func readUvarint(data []byte, pos int) (uint64, int, error) {
	var v uint64
	var shift uint
	for {
		if pos >= len(data) {
			return 0, 0, errors.New("nfa: truncated varint")
		}
		b := data[pos]
		pos++
		v |= uint64(b&0x7f) << shift
		if b&0x80 == 0 {
			return v, pos, nil
		}
		shift += 7
		if shift > 63 {
			return 0, 0, errors.New("nfa: varint overflow")
		}
	}
}
