// Package dminer holds the engine-facing scaffolding shared by the
// distributed miners (internal/dseq, internal/dcand, internal/naive): the
// Mine/MineLocal/MinePeer run wrappers and the fingerprint-grouping combiner.
// The shuffle bounds travel in exactly one place, mapreduce.Config.Shuffle.
package dminer

import (
	"sync"

	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
)

// Mine runs the job on the in-process engine and panics on failure. A run
// can only fail when the shuffle is bounded (spilling or streaming), so
// callers that bound it should prefer MineLocal. name prefixes the panic
// message ("dseq", "dcand", ...).
func Mine[I any, K comparable, V any](name string, inputs []I, cfg mapreduce.Config, job mapreduce.Job[I, K, V, miner.Pattern]) ([]miner.Pattern, mapreduce.Metrics) {
	out, metrics, err := MineLocal(inputs, cfg, job)
	if err != nil {
		panic(name + ": " + err.Error())
	}
	return out, metrics
}

// MineLocal runs the job on the in-process engine and returns the sorted
// patterns with error reporting.
func MineLocal[I any, K comparable, V any](inputs []I, cfg mapreduce.Config, job mapreduce.Job[I, K, V, miner.Pattern]) ([]miner.Pattern, mapreduce.Metrics, error) {
	out, metrics, err := mapreduce.RunLocal(inputs, cfg, job)
	if err != nil {
		return nil, metrics, err
	}
	miner.SortPatterns(out)
	return out, metrics, nil
}

// MinePeer runs this process's share of a distributed job over the wire
// fabric bx, adapting it with the job's codec. The returned patterns are
// those of the partitions this peer owns, sorted like MineLocal's.
func MinePeer[I any, K comparable, V any](inputs []I, cfg mapreduce.Config, job mapreduce.Job[I, K, V, miner.Pattern], codec mapreduce.FrameCodec[K, V], bx mapreduce.ByteExchange) ([]miner.Pattern, mapreduce.Metrics, error) {
	ex := mapreduce.NewFrameExchange(bx, codec)
	out, metrics, err := mapreduce.RunExchange(inputs, cfg, job, ex)
	if err != nil {
		return nil, metrics, err
	}
	miner.SortPatterns(out)
	return out, metrics, nil
}

// groupScratch is the pooled working memory of a GroupCombiner call: the
// fingerprint append buffer and the fingerprint → group-index map. Pooling
// keeps the map's buckets (and the interned key strings' lookup cost) across
// calls; only first-seen fingerprints allocate, as map key strings.
type groupScratch struct {
	buf []byte
	idx map[string]int
}

var groupPool = sync.Pool{New: func() any { return &groupScratch{idx: make(map[string]int)} }}

// GroupCombiner builds the combiner shared by the weighted-record miners: it
// groups a key's values by fingerprint, merging duplicates into the first
// occurrence (in first-seen order, so combining is deterministic given the
// input order). appendKey renders a value's fingerprint into the scratch
// buffer; fingerprints of duplicate values are looked up without allocating,
// so a combine pass only allocates one key string per distinct group. The
// grouped values are compacted into vs in place.
func GroupCombiner[K comparable, V any](appendKey func(buf []byte, v V) []byte, merge func(dst *V, src V)) func(K, []V) []V {
	return func(_ K, vs []V) []V {
		if len(vs) < 2 {
			return vs
		}
		sc := groupPool.Get().(*groupScratch)
		clear(sc.idx)
		out := vs[:0]
		for _, v := range vs {
			sc.buf = appendKey(sc.buf[:0], v)
			if i, ok := sc.idx[string(sc.buf)]; ok {
				merge(&out[i], v)
				continue
			}
			sc.idx[string(sc.buf)] = len(out)
			out = append(out, v)
		}
		groupPool.Put(sc)
		return out
	}
}
