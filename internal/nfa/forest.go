package nfa

import (
	"math/bits"
	"slices"
	"sync"

	"seqmine/internal/dict"
	"seqmine/internal/miner"
)

// Forest holds the weighted NFAs of one pivot partition in a single graph —
// global state ids, every automaton a contiguous id range — and mines them
// with pattern growth (Sec. VI-B). Forests are pooled: AcquireForest hands
// out an empty one, Release returns it with all its storage.
type Forest struct {
	graph
	roots  []int32 // per automaton
	weight []int64 // per automaton: the input sequences it stands for
	owner  []int32 // per state: its automaton
	dec    decoder

	// Mine state. Each expand call takes a new generation gen and has seen a
	// state iff its stamp is gen, an item iff items holds it at gen with its
	// slot in frames[depth].exps (ids come off the wire: hash, never index).
	sigma      int64
	pivot      dict.ItemID
	emit       func(miner.Pattern)
	prefix     []dict.ItemID
	gen        uint32
	items      []itemEntry // open addressing, over twice the distinct items
	stateStamp []uint32    // per state
	frames     []frame     // per recursion depth
}

type itemEntry struct{ item, gen, slot uint32 }

// frame is the expansion scratch of one recursion depth: the distinct items
// leaving the depth's projection and each item's projection.
type frame struct {
	order []uint64 // item<<32 | slot, sorted once the projection is scanned
	exps  []expBuf
}

// expBuf is the projection of prefix+item: target states grouped by automaton
// in ascending order, possibly repeated, and the weight of those automata.
type expBuf struct {
	states    []int32
	lastOwner int32
	support   int64
}

var forestPool = sync.Pool{New: func() any { return new(Forest) }}

// AcquireForest returns an empty Forest from the pool.
func AcquireForest() *Forest {
	f := forestPool.Get().(*Forest)
	f.reset()
	f.roots, f.weight, f.owner = f.roots[:0], f.weight[:0], f.owner[:0]
	return f
}

// Release returns the Forest to the pool. Nothing obtained from it may be used
// afterwards; mined patterns own their memory and are unaffected.
func (f *Forest) Release() {
	f.emit = nil
	forestPool.Put(f)
}

// Add decodes one serialized NFA standing for weight input sequences into the
// forest. Invalid or cyclic bytes return an error and add nothing.
func (f *Forest) Add(data []byte, weight int64) error {
	root, err := f.decode(data, &f.dec)
	if err == nil {
		f.adopt(root, weight)
	}
	return err
}

// adopt registers the states appended since the last automaton as a new one.
func (f *Forest) adopt(root int32, weight int64) {
	id := int32(len(f.roots))
	f.roots = append(f.roots, root)
	f.weight = append(f.weight, weight)
	for len(f.owner) < len(f.final) {
		f.owner = append(f.owner, id)
	}
}

// addNFA copies an in-memory automaton into the forest.
func (f *Forest) addNFA(n *NFA, weight int64) {
	base := int32(len(f.final))
	for q := range n.final {
		for e := n.edgeOff[q]; e < n.edgeOff[q+1]; e++ {
			f.addEdge(base+n.to[e], n.label(e))
		}
		f.addState(n.final[q])
	}
	f.adopt(base+n.root, weight)
}

// Mine counts the candidate subsequences accepted by the forest's automata
// with pattern growth and calls emit, in no particular order, for each one
// whose support reaches sigma. Every automaton contributes its weight at most
// once per candidate. When pivot is non-zero, only candidates containing the
// pivot item are reported.
//
// A projection lists the states a prefix can be in, grouped by automaton in
// ascending order. Expanding scatters the target of every (label item,
// target) pair leaving them into the item's buffer, like DESQ-DFS's
// dfsMiner.project; edges stay within their automaton, so a buffer is a
// projection again, whose support grows by an automaton's weight whenever its
// last owner changes. Repeated states are skipped at the next depth; only a
// depth's distinct items are sorted. Warm buffers allocate only the patterns.
func (f *Forest) Mine(sigma int64, pivot dict.ItemID, emit func(miner.Pattern)) {
	f.sigma, f.pivot, f.emit = sigma, pivot, emit
	f.stateStamp = grow(f.stateStamp, len(f.final))
	if len(f.labels) > 0 { // without edges nothing is looked up
		distinct := min(len(f.labels), int(slices.Max(f.labels))+1) // at most
		f.items = grow(f.items, 2<<bits.Len(uint(distinct)))
	}
	f.expand(0, f.roots)
}

// grow returns s, or if it is shorter than n a zeroed slice of max(n, 2·len(s)).
func grow[T any](s []T, n int) []T {
	if len(s) < n {
		s = make([]T, max(n, 2*len(s)))
	}
	return s
}

// expand reports the current prefix if the automata with a final state in proj
// reach sigma, then grows it by every item whose projection does.
func (f *Forest) expand(depth int, proj []int32) {
	if f.gen++; f.gen == 0 {
		clear(f.items)
		clear(f.stateStamp)
		f.gen = 1
	}
	mask := len(f.items) - 1
	if depth == len(f.frames) {
		f.frames = append(f.frames, frame{})
	}
	fr := &f.frames[depth]
	fr.order = fr.order[:0]
	var freq int64
	last := int32(-1)
	for _, q := range proj {
		if f.stateStamp[q] == f.gen {
			continue
		}
		f.stateStamp[q] = f.gen
		o := f.owner[q]
		if f.final[q] && o != last {
			freq += f.weight[o]
			last = o
		}
		for e := f.edgeOff[q]; e < f.edgeOff[q+1]; e++ {
			to := f.to[e]
			for _, w := range f.label(e) {
				i := int(uint64(w)*0x9e3779b97f4a7c15>>32) & mask
				for f.items[i].gen == f.gen && f.items[i].item != uint32(w) {
					i = (i + 1) & mask
				}
				it := &f.items[i]
				if it.gen != f.gen {
					*it = itemEntry{uint32(w), f.gen, uint32(len(fr.order))}
					fr.order = append(fr.order, uint64(w)<<32|uint64(it.slot))
					if int(it.slot) == len(fr.exps) {
						fr.exps = append(fr.exps, expBuf{})
					}
					fr.exps[it.slot] = expBuf{states: fr.exps[it.slot].states[:0], lastOwner: -1}
				}
				x := &fr.exps[it.slot]
				if x.lastOwner != o {
					x.lastOwner = o
					x.support += f.weight[o]
				}
				x.states = append(x.states, to)
			}
		}
	}
	if freq >= f.sigma && depth > 0 && (f.pivot == dict.None || slices.Contains(f.prefix, f.pivot)) {
		f.emit(miner.Pattern{Items: slices.Clone(f.prefix), Freq: freq})
	}

	// Deeper calls may move f.frames but leave this depth's buffers alone.
	slices.Sort(fr.order)
	for _, key := range fr.order {
		if x := &fr.exps[uint32(key)]; x.support >= f.sigma {
			f.prefix = append(f.prefix, dict.ItemID(key>>32))
			f.expand(depth+1, x.states)
			f.prefix = f.prefix[:len(f.prefix)-1]
		}
	}
}

// Weighted is an NFA together with the number of input sequences that sent
// it (combiner aggregation of Sec. VI-A).
type Weighted struct {
	N      *NFA
	Weight int64
}

// MinePartition mines the weighted NFAs of one partition (see Forest.Mine)
// and returns the frequent candidates in canonical order.
func MinePartition(nfas []Weighted, sigma int64, pivot dict.ItemID) []miner.Pattern {
	f := AcquireForest()
	defer f.Release()
	for _, wn := range nfas {
		if wn.N != nil && wn.N.NumStates() > 0 {
			f.addNFA(wn.N, wn.Weight)
		}
	}
	var out []miner.Pattern
	f.Mine(sigma, pivot, func(p miner.Pattern) { out = append(out, p) })
	miner.SortPatterns(out)
	return out
}
