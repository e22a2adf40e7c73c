package nfa

import (
	"sort"

	"seqmine/internal/dict"
)

// NumEdges returns the number of edges.
func (n *NFA) NumEdges() int { return len(n.to) }

// Accepted enumerates the distinct item sequences accepted by the NFA, in
// lexicographic order: the language the tests compare automata by.
func (n *NFA) Accepted() [][]dict.ItemID {
	if n.NumStates() == 0 {
		return nil
	}
	set := map[string][]dict.ItemID{}
	var cur []dict.ItemID
	var rec func(q int32)
	rec = func(q int32) {
		if n.final[q] && len(cur) > 0 {
			if key := labelKey(cur); set[key] == nil {
				set[key] = append([]dict.ItemID(nil), cur...)
			}
		}
		for e := n.edgeOff[q]; e < n.edgeOff[q+1]; e++ {
			for _, w := range n.label(e) {
				cur = append(cur, w)
				rec(n.to[e])
				cur = cur[:len(cur)-1]
			}
		}
	}
	rec(n.root)
	out := make([][]dict.ItemID, 0, len(set))
	for _, s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return lessSeq(out[i], out[j]) })
	return out
}

// Empty reports whether no path has been added to b yet.
func (b *Builder) Empty() bool { return len(b.nodes) == 1 && !b.nodes[0].final }
