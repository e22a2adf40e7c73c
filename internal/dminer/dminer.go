// Package dminer holds the engine-facing scaffolding shared by the
// distributed miners (internal/dseq, internal/dcand, internal/naive): the one
// Mine run wrapper and the fingerprint-grouping combiner.
// The shuffle bounds travel in exactly one place, mapreduce.Config.Shuffle.
package dminer

import (
	"bytes"
	"hash/maphash"
	"math/bits"
	"slices"
	"sync"

	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
)

// Mine runs the job on the engine — alone in this process when bx is nil, as
// one peer of the wire fabric bx otherwise (see mapreduce.Run) — and returns
// the patterns of the partitions this process reduces, sorted.
func Mine[I any, K comparable, V any](inputs []I, cfg mapreduce.Config, job mapreduce.Job[I, K, V, miner.Pattern], bx mapreduce.ByteExchange) ([]miner.Pattern, mapreduce.Metrics, error) {
	out, metrics, err := mapreduce.Run(inputs, cfg, job, bx)
	if err != nil {
		return nil, metrics, err
	}
	miner.SortPatterns(out)
	return out, metrics, nil
}

// groupScratch is the pooled working memory of a GroupCombiner call: the
// fingerprints of the distinct values seen so far, back to back in one
// append-only arena (group g's is arena[offs[g]:offs[g+1]]), their hashes, and
// an open-addressing table of group indices over them.
type groupScratch struct {
	arena []byte
	offs  []int
	hash  []uint64
	slots []int32 // group index + 1; 0 = empty
}

var (
	groupPool = sync.Pool{New: func() any { return new(groupScratch) }}
	groupSeed = maphash.MakeSeed()
)

// GroupCombiner builds the combiner shared by the weighted-record miners: it
// groups a key's values by fingerprint, merging duplicates into the first
// occurrence (in first-seen order, so combining is deterministic given the
// input order). appendKey appends a value's fingerprint to buf. The table is
// sized to the values at hand — a small group never pays for a large one seen
// earlier — and fingerprints are compared in place, so a combine pass
// allocates nothing once the scratch is warm. The grouped values are
// compacted into vs in place.
func GroupCombiner[K comparable, V any](appendKey func(buf []byte, v V) []byte, merge func(dst *V, src V)) func(K, []V) []V {
	return func(_ K, vs []V) []V {
		if len(vs) < 2 {
			return vs
		}
		sc := groupPool.Get().(*groupScratch)
		size := 1 << bits.Len(uint(2*len(vs)-1)) // load factor <= 1/2
		sc.slots = slices.Grow(sc.slots[:0], size)[:size]
		clear(sc.slots)
		sc.arena, sc.offs, sc.hash = sc.arena[:0], append(sc.offs[:0], 0), sc.hash[:0]
		mask := uint64(size - 1)
		out := vs[:0]
	values:
		for _, v := range vs {
			start := len(sc.arena)
			sc.arena = appendKey(sc.arena, v)
			fp := sc.arena[start:]
			h := maphash.Bytes(groupSeed, fp)
			i := h & mask
			for ; sc.slots[i] != 0; i = (i + 1) & mask {
				g := int(sc.slots[i] - 1)
				if sc.hash[g] == h && bytes.Equal(fp, sc.arena[sc.offs[g]:sc.offs[g+1]]) {
					merge(&out[g], v)
					sc.arena = sc.arena[:start]
					continue values
				}
			}
			sc.slots[i] = int32(len(out) + 1)
			sc.offs = append(sc.offs, len(sc.arena))
			sc.hash = append(sc.hash, h)
			out = append(out, v)
		}
		groupPool.Put(sc)
		return out
	}
}
