package nfa

import (
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

	// Mine state. levels[d] is the expansion buffer of recursion depth d.
	sigma  int64
	pivot  dict.ItemID
	emit   func(miner.Pattern)
	prefix []dict.ItemID
	levels [][]uint64
	tmp    []uint64 // radix sort scratch
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
// A projection is a sorted slice of keys item<<32|state sharing one item: the
// states its prefix can be in, which sorting groups by automaton. Expanding
// collects the key of every (label item, target) pair leaving those states
// into the depth's buffer and sorts it; duplicates collapse, each item's run
// of keys is its child projection in place, and its support is the weight of
// the distinct automata in the run. No hashing, and no allocation once the
// buffers are warm, beyond the emitted patterns.
func (f *Forest) Mine(sigma int64, pivot dict.ItemID, emit func(miner.Pattern)) {
	f.sigma, f.pivot, f.emit = sigma, pivot, emit
	if len(f.levels) == 0 {
		f.levels = append(f.levels, nil)
	}
	proj := f.levels[0][:0]
	for _, r := range f.roots {
		proj = append(proj, uint64(r))
	}
	f.levels[0] = proj
	f.expand(1, proj)
}

// expand reports the current prefix if the automata with a final state in proj
// reach sigma, then grows it by every item whose projection does.
func (f *Forest) expand(depth int, proj []uint64) {
	if depth >= len(f.levels) {
		f.levels = append(f.levels, nil)
	}
	keys := f.levels[depth][:0]
	var freq int64
	last := int32(-1)
	for _, key := range proj {
		q := uint32(key)
		if o := f.owner[q]; f.final[q] && o != last {
			freq += f.weight[o]
			last = o
		}
		for e := f.edgeOff[q]; e < f.edgeOff[q+1]; e++ {
			to := uint64(f.to[e])
			for _, w := range f.label(e) {
				keys = append(keys, uint64(w)<<32|to)
			}
		}
	}
	if freq >= f.sigma && len(f.prefix) > 0 && (f.pivot == dict.None || slices.Contains(f.prefix, f.pivot)) {
		f.emit(miner.Pattern{Items: slices.Clone(f.prefix), Freq: freq})
	}

	keys = f.sortKeys(keys)
	f.levels[depth] = keys
	for i := 0; i < len(keys); {
		item := keys[i] >> 32
		var support int64
		last := int32(-1)
		end := i // keys[i:end] is the item's deduplicated projection
		j := i
		for ; j < len(keys) && keys[j]>>32 == item; j++ {
			if j > i && keys[j] == keys[j-1] {
				continue
			}
			keys[end] = keys[j]
			end++
			if o := f.owner[uint32(keys[j])]; o != last {
				support += f.weight[o]
				last = o
			}
		}
		if support >= f.sigma {
			f.prefix = append(f.prefix, dict.ItemID(item))
			f.expand(depth+1, keys[i:end])
			f.prefix = f.prefix[:len(f.prefix)-1]
		}
		i = j
	}
}

// sortKeys sorts keys ascending and returns the sorted slice: keys itself, or
// f.tmp when the radix passes end there (the two then swap roles). Large
// buffers — the root level holds every automaton's first edges — get an LSD
// radix sort over the bytes in which the keys differ at all.
func (f *Forest) sortKeys(keys []uint64) []uint64 {
	if len(keys) < 128 {
		slices.Sort(keys)
		return keys
	}
	or, and := uint64(0), ^uint64(0)
	for _, k := range keys {
		or |= k
		and &= k
	}
	tmp := resize(f.tmp, len(keys))
	for shift := 0; shift < 64; shift += 8 {
		if (or^and)>>shift&0xff == 0 {
			continue
		}
		var count [256]int
		for _, k := range keys {
			count[k>>shift&0xff]++
		}
		sum := 0
		for b, c := range count {
			count[b] = sum
			sum += c
		}
		for _, k := range keys {
			b := k >> shift & 0xff
			tmp[count[b]] = k
			count[b]++
		}
		keys, tmp = tmp, keys
	}
	f.tmp = tmp
	return keys
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
