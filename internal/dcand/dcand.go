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
	// Prefilter enables the two-pass trick of the paper: map workers run a
	// cheap backward reachability scan (fst.Flat.CanAccept) and skip the run
	// enumeration for sequences without any accepting run. Such sequences
	// produce no NFAs, so the mined output is byte-identical either way.
	Prefilter bool
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
			return v, pos + int(n), nil
		},
	}
}

// mapScratch is the pooled per-call working memory of the map phase. The run
// enumeration is the hot loop of D-CAND: every accepting run filters its
// output sets, merges pivots and cuts one path per pivot, so all of that
// works out of reused buffers. Filtered sets and per-pivot paths are regions
// of one append-only arena (items) — a reallocation while appending leaves
// earlier regions intact in the old backing array, exactly like the pivot
// grid's arena. Builders are recycled across sequences via nfa.Builder.Reset,
// which is safe because every NFA a builder produced is serialized before the
// builder returns to the free list.
type mapScratch struct {
	builders map[dict.ItemID]*nfa.Builder
	free     []*nfa.Builder
	merge    pivot.MergeScratch
	filtered [][]dict.ItemID
	path     [][]dict.ItemID
	items    []dict.ItemID
}

var mapScratchPool = sync.Pool{New: func() any {
	return &mapScratch{builders: map[dict.ItemID]*nfa.Builder{}}
}}

func (sc *mapScratch) getBuilder() *nfa.Builder {
	if n := len(sc.free); n > 0 {
		b := sc.free[n-1]
		sc.free = sc.free[:n-1]
		return b
	}
	return nfa.NewBuilder()
}

func (sc *mapScratch) putBuilder(b *nfa.Builder) {
	b.Reset()
	sc.free = append(sc.free, b)
}

// recordSize is the exact single-record wire size of (k, v), replacing the
// earlier hard-coded `len(data) + 2 + 2` guess so ShuffleBytes stays honest
// across codecs.
func recordSize(k dict.ItemID, v value) int {
	return mapreduce.UvarintLen(uint64(k)) + mapreduce.UvarintLen(1) +
		mapreduce.UvarintLen(uint64(v.weight)) + mapreduce.UvarintLen(uint64(len(v.data))) + len(v.data)
}

// Mine runs D-CAND on the database and returns all frequent sequences
// together with the engine metrics. It panics on failure; a run can only
// fail when the shuffle is bounded (cfg.Shuffle), so callers
// that bound it should prefer MineLocal.
func Mine(f *fst.FST, db [][]dict.ItemID, sigma int64, opts Options, cfg mapreduce.Config) ([]miner.Pattern, mapreduce.Metrics) {
	return dminer.Mine("dcand", db, cfg, buildJob(f, sigma, opts))
}

// MineLocal is Mine with error reporting: bounded-shuffle failures (the only
// way an in-process run can fail) are returned instead of panicking.
func MineLocal(f *fst.FST, db [][]dict.ItemID, sigma int64, opts Options, cfg mapreduce.Config) ([]miner.Pattern, mapreduce.Metrics, error) {
	return dminer.MineLocal(db, cfg, buildJob(f, sigma, opts))
}

// MinePeer runs this process's share of a distributed D-CAND job: split is
// the local input partition and bx the wire fabric connecting the
// participating processes (internal/transport). The returned patterns are
// those of the pivot partitions this peer owns; the union over all peers
// equals Mine's output on the whole database. Metrics are local to this
// peer, with ShuffleBytes measuring real transport traffic.
func MinePeer(f *fst.FST, split [][]dict.ItemID, sigma int64, opts Options, cfg mapreduce.Config, bx mapreduce.ByteExchange) ([]miner.Pattern, mapreduce.Metrics, error) {
	return dminer.MinePeer(split, cfg, buildJob(f, sigma, opts), codec(), bx)
}

// buildJob assembles the one-round BSP job of D-CAND.
func buildJob(f *fst.FST, sigma int64, opts Options) mapreduce.Job[[]dict.ItemID, dict.ItemID, value, miner.Pattern] {
	d := f.Dict()
	var flat *fst.Flat
	if opts.Prefilter {
		flat = f.Flatten()
	}
	// For frequency-sorted dictionaries (every Builder-built dictionary) the
	// per-output frequency check is one compare against the largest frequent
	// fid, hoisted out of the run enumeration.
	byFid := sigma > 0 && d.FrequencySorted()
	var limit dict.ItemID
	if byFid {
		limit = d.MaxFrequentFid(sigma)
	}
	frequent := func(w dict.ItemID) bool {
		if byFid {
			return w <= limit
		}
		return d.IsFrequent(w, sigma)
	}

	job := mapreduce.Job[[]dict.ItemID, dict.ItemID, value, miner.Pattern]{
		Map: func(T []dict.ItemID, emit func(dict.ItemID, value)) {
			if flat != nil && !flat.CanAccept(T) {
				return
			}
			sc := mapScratchPool.Get().(*mapScratch)
			f.ForEachRun(T, func(outputs [][]dict.ItemID) bool {
				// Filter infrequent items from the output sets; skip the run
				// if a position retains no output choice.
				sc.filtered = sc.filtered[:0]
				sc.items = sc.items[:0]
				for _, set := range outputs {
					if set == nil {
						sc.filtered = append(sc.filtered, nil)
						continue
					}
					off := len(sc.items)
					for _, w := range set {
						if frequent(w) {
							sc.items = append(sc.items, w)
						}
					}
					if len(sc.items) == off {
						return true // no Gσ candidate passes through this run
					}
					sc.filtered = append(sc.filtered, sc.items[off:len(sc.items):len(sc.items)])
				}
				// Pivot items of the run (Theorem 1).
				pivots := sc.merge.MergeAll(sc.filtered)
				for _, k := range pivots {
					mark := len(sc.items)
					sc.path = sc.path[:0]
					for _, set := range sc.filtered {
						if set == nil {
							continue
						}
						off := len(sc.items)
						for _, w := range set {
							if w <= k {
								sc.items = append(sc.items, w)
							}
						}
						if len(sc.items) > off {
							sc.path = append(sc.path, sc.items[off:len(sc.items):len(sc.items)])
						}
					}
					if len(sc.path) > 0 {
						b := sc.builders[k]
						if b == nil {
							b = sc.getBuilder()
							sc.builders[k] = b
						}
						// AddPath copies the labels into the builder's own
						// arena, so the path regions are free to be reused.
						b.AddPath(sc.path)
					}
					sc.items = sc.items[:mark]
				}
				return true
			})
			for k, b := range sc.builders {
				var automaton *nfa.NFA
				if opts.Minimize {
					automaton = b.Minimize()
				} else {
					automaton = b.Trie()
				}
				emit(k, value{data: automaton.Serialize(), weight: 1})
				sc.putBuilder(b)
			}
			clear(sc.builders)
			mapScratchPool.Put(sc)
		},
		Reduce: func(k dict.ItemID, vs []value, emit func(miner.Pattern)) {
			weighted := make([]nfa.Weighted, 0, len(vs))
			for _, v := range vs {
				automaton, err := nfa.Deserialize(v.data)
				if err != nil {
					continue // cannot happen for locally produced data
				}
				weighted = append(weighted, nfa.Weighted{N: automaton, Weight: v.weight})
			}
			for _, p := range nfa.MinePartition(weighted, sigma, k) {
				emit(p)
			}
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
