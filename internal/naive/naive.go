// Package naive implements the NAIVE and SEMI-NAIVE baselines of Sec. III-A:
// subsequence-based partitioning in which every candidate subsequence is
// communicated and counted like in word count. NAIVE generates Gπ(T);
// SEMI-NAIVE restricts generation to candidates that consist of frequent
// items only (Gσπ(T)). Both are simple but communicate all candidates and
// can therefore be infeasible for loose constraints.
package naive

import (
	"fmt"

	"seqmine/internal/dict"
	"seqmine/internal/dminer"
	"seqmine/internal/fst"
	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
)

// Variant selects the baseline.
type Variant int

const (
	// Naive generates and communicates all candidate subsequences.
	Naive Variant = iota
	// SemiNaive generates only candidates consisting of frequent items.
	SemiNaive
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	if v == SemiNaive {
		return "SemiNaive"
	}
	return "Naive"
}

// codec is the wire/spill encoding of one shuffle record: the candidate key
// as length-prefixed bytes and the count as a varint.
func codec() mapreduce.FrameCodec[string, int64] {
	return mapreduce.FrameCodec[string, int64]{
		AppendKey: func(buf []byte, k string) []byte {
			buf = mapreduce.AppendUvarint(buf, uint64(len(k)))
			return append(buf, k...)
		},
		ReadKey: func(data []byte, pos int) (string, int, error) {
			n, pos, err := mapreduce.ReadUvarint(data, pos)
			if err != nil {
				return "", 0, err
			}
			if n > uint64(len(data)-pos) {
				return "", 0, fmt.Errorf("naive: key claims %d bytes, %d left", n, len(data)-pos)
			}
			return string(data[pos : pos+int(n)]), pos + int(n), nil
		},
		AppendValue: func(buf []byte, v int64) []byte {
			return mapreduce.AppendUvarint(buf, uint64(v))
		},
		ReadValue: func(data []byte, pos int) (int64, int, error) {
			v, pos, err := mapreduce.ReadUvarint(data, pos)
			return int64(v), pos, err
		},
	}
}

// Mine runs the baseline on the database, alone in this process, and returns
// the frequent sequences together with the engine metrics. Unlike
// D-SEQ/D-CAND the baselines have no algorithmic enhancement toggles.
// (Bounding the shuffle through cfg.Shuffle matters particularly here:
// SendBufferBytes bounds the map-side combine, whose candidate groups are
// otherwise proportional to the whole map output — the combiner then runs per
// send-buffer flush instead of over one unbounded map per worker.)
func Mine(f *fst.FST, db [][]dict.ItemID, sigma int64, variant Variant, cfg mapreduce.Config) ([]miner.Pattern, mapreduce.Metrics, error) {
	return dminer.Mine(db, cfg, buildJob(f, sigma, variant), nil)
}

// buildJob assembles the word-count style BSP job of the baselines.
func buildJob(f *fst.FST, sigma int64, variant Variant) mapreduce.Job[[]dict.ItemID, string, int64, miner.Pattern] {
	genSigma := int64(0)
	if variant == SemiNaive {
		genSigma = sigma
	}
	flat := f.Flatten()
	job := mapreduce.Job[[]dict.ItemID, string, int64, miner.Pattern]{
		Map: func(T []dict.ItemID, emit func(string, int64)) {
			// The flat enumerator deduplicates per sequence, so each distinct
			// candidate is emitted exactly once — the same multiset of records
			// EnumerateCandidates produced, without materializing the list.
			flat.ForEachDistinctCandidate(T, genSigma, func(cand []dict.ItemID) bool {
				emit(EncodeSequence(cand), 1)
				return true
			})
		},
		Combine: func(_ string, vs []int64) []int64 {
			var s int64
			for _, v := range vs {
				s += v
			}
			return []int64{s}
		},
		Reduce: func(key string, vs []int64, emit func(miner.Pattern)) {
			var s int64
			for _, v := range vs {
				s += v
			}
			if s >= sigma {
				emit(miner.Pattern{Items: DecodeSequence(key), Freq: s})
			}
		},
		Hash: mapreduce.HashString,
		// The exact single-record wire size of (k, v) under codec(), so
		// ShuffleBytes and the spill-threshold accounting stay honest.
		SizeOf: func(k string, v int64) int {
			return mapreduce.UvarintLen(uint64(len(k))) + len(k) +
				mapreduce.UvarintLen(1) + mapreduce.UvarintLen(uint64(v))
		},
	}
	c := codec()
	job.Codec = &c
	return job
}

// EncodeSequence renders a sequence of fids as a compact varint byte string,
// used as the partition key of subsequence-based partitioning.
func EncodeSequence(seq []dict.ItemID) string {
	buf := make([]byte, 0, len(seq)*2)
	for _, w := range seq {
		v := uint32(w)
		for v >= 0x80 {
			buf = append(buf, byte(v)|0x80)
			v >>= 7
		}
		buf = append(buf, byte(v))
	}
	return string(buf)
}

// DecodeSequence reverses EncodeSequence.
func DecodeSequence(key string) []dict.ItemID {
	var out []dict.ItemID
	var v uint32
	var shift uint
	for i := 0; i < len(key); i++ {
		b := key[i]
		v |= uint32(b&0x7f) << shift
		if b&0x80 == 0 {
			out = append(out, dict.ItemID(v))
			v, shift = 0, 0
		} else {
			shift += 7
		}
	}
	return out
}
