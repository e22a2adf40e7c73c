// Package dcand implements D-CAND (Sec. VI of the paper): distributed
// frequent sequence mining with item-based partitioning and candidate
// representation. The map phase enumerates the accepting runs of each input
// sequence, builds one NFA per pivot item that accepts exactly the pivot's
// candidate subsequences, minimizes the NFA and ships it in serialized form.
// A combiner aggregates identical NFAs into weighted NFAs. The reduce phase
// counts candidates directly on the compressed NFAs with a pattern-growth
// miner.
package dcand

import (
	"fmt"
	"slices"
	"sync"

	"seqmine/internal/dict"
	"seqmine/internal/dminer"
	"seqmine/internal/fst"
	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
	"seqmine/internal/nfa"
	"seqmine/internal/pivot"
)

// Options toggles the individual enhancements of D-CAND; they correspond to
// the ablation study of Fig. 10b.
type Options struct {
	// Minimize enables minimization of the per-pivot tries before
	// serialization. Without it, plain tries are shipped.
	Minimize bool
	// Aggregate enables the combiner that merges identical serialized NFAs
	// into a single weighted NFA.
	Aggregate bool
}

// DefaultOptions enables minimization and aggregation.
func DefaultOptions() Options { return Options{Minimize: true, Aggregate: true} }

// value is the communicated record: one serialized NFA and the number of
// input sequences it represents.
type value struct {
	data   []byte
	weight int64
}

// codec is the wire encoding of one D-CAND shuffle record: the pivot key as
// a varint and each value as weight varint, length varint and the serialized
// NFA bytes. The same encoding backs the honest SizeOf estimate of
// in-process runs.
func codec() mapreduce.FrameCodec[dict.ItemID, value] {
	return mapreduce.FrameCodec[dict.ItemID, value]{
		AppendKey: func(buf []byte, k dict.ItemID) []byte {
			return mapreduce.AppendUvarint(buf, uint64(k))
		},
		ReadKey: func(data []byte, pos int) (dict.ItemID, int, error) {
			v, pos, err := mapreduce.ReadUvarint(data, pos)
			return dict.ItemID(v), pos, err
		},
		AppendValue: func(buf []byte, v value) []byte {
			buf = mapreduce.AppendUvarint(buf, uint64(v.weight))
			buf = mapreduce.AppendUvarint(buf, uint64(len(v.data)))
			return append(buf, v.data...)
		},
		ReadValue: func(data []byte, pos int) (value, int, error) {
			var v value
			weight, pos, err := mapreduce.ReadUvarint(data, pos)
			if err != nil {
				return v, 0, err
			}
			n, pos, err := mapreduce.ReadUvarint(data, pos)
			if err != nil {
				return v, 0, err
			}
			if n > uint64(len(data)-pos) {
				return v, 0, fmt.Errorf("dcand: NFA claims %d bytes, %d left", n, len(data)-pos)
			}
			v.weight = int64(weight)
			v.data = append([]byte(nil), data[pos:pos+int(n)]...)
			// Wire and spill bytes enter the process here: a torn or hostile
			// NFA must fail the job, not reach the reducer.
			if err := nfa.Validate(v.data); err != nil {
				return v, 0, err
			}
			return v, pos + int(n), nil
		},
	}
}

// pivotTrie is the candidate trie of one pivot item of the sequence being
// mapped, with the memo that makes insertion incremental: the trie state after
// each output set of the last run inserted, and that run's number.
type pivotTrie struct {
	nfa.Builder
	pivot   dict.ItemID
	lastRun int32
	path    []int32 // path[j]: state after the run's first j sets; path[0] is the root
}

// mapScratch is the pooled per-call working memory of the map phase. The run
// enumeration is the hot loop of D-CAND, and consecutive runs of the DFS
// share a prefix of output sets, so everything derived from a prefix is kept
// per depth and only the changed tail is redone: acc holds the ⊕-fold of the
// first j sets as regions of one append-only arena (acc[accEnd[j]:accEnd[j+1]],
// like the pivot grid's), stamp[j] the first run that saw set j, and each
// pivot's trie remembers where its last insertion went. Tries are recycled
// across sequences through Builder.Reset.
type mapScratch struct {
	tries  []*pivotTrie // of the current sequence, in first-seen order
	free   []*pivotTrie
	slot   []int32 // pivot fid -> index into tries + 1; cleared after each sequence
	acc    []dict.ItemID
	accEnd []int32
	stamp  []int32
	run    int32
	wire   []byte // the sequence's serialized NFAs back to back, ends[i] closing the i-th
	ends   []int
}

var mapScratchPool = sync.Pool{New: func() any { return new(mapScratch) }}

// trieFor returns the trie of pivot k, starting one on first sight.
func (sc *mapScratch) trieFor(k dict.ItemID) *pivotTrie {
	if int(k) >= len(sc.slot) {
		sc.slot = append(sc.slot, make([]int32, int(k)+1-len(sc.slot))...)
	}
	if i := sc.slot[k]; i != 0 {
		return sc.tries[i-1]
	}
	var pt *pivotTrie
	if n := len(sc.free); n > 0 {
		pt, sc.free = sc.free[n-1], sc.free[:n-1]
	} else {
		pt = &pivotTrie{path: []int32{0}}
	}
	pt.Reset()
	pt.pivot, pt.lastRun = k, 0
	sc.tries = append(sc.tries, pt)
	sc.slot[k] = int32(len(sc.tries))
	return pt
}

// addRun inserts one accepting run — its frequent output sets, the first
// shared of them unchanged since the previous run — into the trie of each of
// its pivot items (Theorem 1), cut down to the items <= the pivot.
func (sc *mapScratch) addRun(outputs [][]dict.ItemID, shared int) bool {
	sc.run++
	sc.acc = sc.acc[:sc.accEnd[shared+1]]
	sc.accEnd = sc.accEnd[:shared+2]
	sc.stamp = sc.stamp[:shared]
	for j := shared; j < len(outputs); j++ {
		prev := sc.acc[sc.accEnd[j]:sc.accEnd[j+1]]
		sc.acc = pivot.AppendMerge(sc.acc, prev, outputs[j])
		sc.accEnd = append(sc.accEnd, int32(len(sc.acc)))
		sc.stamp = append(sc.stamp, sc.run)
	}
	n := len(outputs)
	pivots := sc.acc[sc.accEnd[n]:sc.accEnd[n+1]]
	if pivots[0] == dict.None {
		pivots = pivots[1:] // ε: the run also generates the empty candidate
	}
	for _, k := range pivots {
		pt := sc.trieFor(k)
		// Sets stamped no later than the trie's last run were part of it.
		j := n
		for j > 0 && sc.stamp[j-1] > pt.lastRun {
			j--
		}
		q := pt.path[j]
		pt.path = pt.path[:j+1]
		for ; j < n; j++ {
			set := outputs[j]
			cut := len(set)
			for set[cut-1] > k {
				cut--
			}
			q = pt.Step(q, set[:cut])
			pt.path = append(pt.path, q)
		}
		pt.SetFinal(q)
		pt.lastRun = sc.run
	}
	return true
}

// emitAll serializes the tries of the finished sequence (minimized, or in CSR
// form only when shipped as plain tries) and recycles them. The sequence's
// records share one exact-size allocation that nothing pooled aliases.
func (sc *mapScratch) emitAll(minimize bool, emit func(dict.ItemID, value)) {
	sc.wire, sc.ends = sc.wire[:0], sc.ends[:0]
	for _, pt := range sc.tries {
		automaton := pt.Trie
		if minimize {
			automaton = pt.Minimize
		}
		sc.wire = automaton().AppendSerialized(sc.wire)
		sc.ends = append(sc.ends, len(sc.wire))
		sc.slot[pt.pivot] = 0
	}
	data := slices.Clone(sc.wire)
	off := 0
	for i, pt := range sc.tries {
		emit(pt.pivot, value{data: data[off:sc.ends[i]:sc.ends[i]], weight: 1})
		off = sc.ends[i]
	}
	sc.free = append(sc.free, sc.tries...)
	sc.tries = sc.tries[:0]
}

// recordSize is the exact single-record wire size of (k, v), replacing the
// earlier hard-coded `len(data) + 2 + 2` guess so ShuffleBytes stays honest
// across codecs.
func recordSize(k dict.ItemID, v value) int {
	return mapreduce.UvarintLen(uint64(k)) + mapreduce.UvarintLen(1) +
		mapreduce.UvarintLen(uint64(v.weight)) + mapreduce.UvarintLen(uint64(len(v.data))) + len(v.data)
}

// Mine runs D-CAND and returns the frequent sequences together with the
// engine metrics. With bx nil it mines db alone in this process. Otherwise db
// is this process's input split and bx the wire fabric connecting the
// participating processes (internal/transport): the returned patterns are
// those of the pivot partitions this peer owns — the union over all peers
// equals the single-process output — and the metrics are local to this peer,
// with ShuffleBytes measuring real transport traffic.
func Mine(f *fst.FST, db [][]dict.ItemID, sigma int64, opts Options, cfg mapreduce.Config, bx mapreduce.ByteExchange) ([]miner.Pattern, mapreduce.Metrics, error) {
	return dminer.Mine(db, cfg, buildJob(f, sigma, opts), bx)
}

// buildJob assembles the one-round BSP job of D-CAND.
func buildJob(f *fst.FST, sigma int64, opts Options) mapreduce.Job[[]dict.ItemID, dict.ItemID, value, miner.Pattern] {
	job := mapreduce.Job[[]dict.ItemID, dict.ItemID, value, miner.Pattern]{
		Map: func(T []dict.ItemID, emit func(dict.ItemID, value)) {
			sc := mapScratchPool.Get().(*mapScratch)
			sc.run = 0
			sc.acc = append(sc.acc[:0], dict.None)
			sc.accEnd = append(sc.accEnd[:0], 0, 1)
			f.ForEachRun(T, sigma, sc.addRun)
			sc.emitAll(opts.Minimize, emit)
			mapScratchPool.Put(sc)
		},
		Reduce: func(k dict.ItemID, vs []value, emit func(miner.Pattern)) {
			fo := nfa.AcquireForest()
			for _, v := range vs {
				// Local values come from Serialize and foreign bytes were
				// validated by the codec, so a decode failure is a bug.
				if err := fo.Add(v.data, v.weight); err != nil {
					panic(fmt.Sprintf("dcand: NFA of pivot %d passed validation but does not decode: %v", k, err))
				}
			}
			fo.Mine(sigma, k, emit)
			fo.Release()
		},
		Hash:   func(k dict.ItemID) uint64 { return mapreduce.HashUint64(uint64(k)) },
		SizeOf: recordSize,
	}
	c := codec()
	job.Codec = &c
	if opts.Aggregate {
		job.Combine = dminer.GroupCombiner[dict.ItemID](
			func(buf []byte, v value) []byte { return append(buf, v.data...) },
			func(dst *value, src value) { dst.weight += src.weight },
		)
	}

	return job
}
