// Package dseq implements D-SEQ (Sec. V of the paper): distributed frequent
// sequence mining with item-based partitioning and sequence representation.
// The map phase determines the pivot items K(T) of each input sequence with
// the position–state grid, rewrites the sequence per pivot (dropping leading
// and trailing irrelevant positions) and sends the rewritten sequence to the
// pivot partitions. Each partition is mined locally with the pivot-restricted
// DESQ-DFS miner.
package dseq

import (
	"fmt"

	"seqmine/internal/dict"
	"seqmine/internal/dminer"
	"seqmine/internal/fst"
	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
	"seqmine/internal/pivot"
)

// Options toggles the individual enhancements of D-SEQ; they correspond to
// the ablation study of Fig. 10a.
type Options struct {
	// UseGrid enables the position–state grid during pivot search. Without
	// it, pivots are found by enumerating all accepting runs.
	UseGrid bool
	// Rewrite enables sending rewritten (shortened) input sequences instead
	// of the full sequences.
	Rewrite bool
	// EarlyStopping enables the local-mining heuristic that stops growing
	// prefixes that can no longer contain the pivot item.
	EarlyStopping bool
	// Aggregate merges identical (rewritten) sequences sent to the same
	// partition by a map worker into a single weighted record.
	Aggregate bool
}

// DefaultOptions enables all enhancements.
func DefaultOptions() Options {
	return Options{UseGrid: true, Rewrite: true, EarlyStopping: true, Aggregate: true}
}

// value is the communicated record: a (possibly rewritten) input sequence
// with a weight. It is the miner's weighted-sequence type, so a reduce
// partition feeds MineDFS directly without a per-record conversion copy.
type value = miner.WeightedSequence

// codec is the wire encoding of one D-SEQ shuffle record: the pivot key and
// each value as varints (weight, item count, items). The same encoding backs
// the honest SizeOf estimate of in-process runs.
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
			buf = mapreduce.AppendUvarint(buf, uint64(v.Weight))
			buf = mapreduce.AppendUvarint(buf, uint64(len(v.Items)))
			for _, w := range v.Items {
				buf = mapreduce.AppendUvarint(buf, uint64(w))
			}
			return buf
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
				return v, 0, fmt.Errorf("dseq: sequence claims %d items in %d bytes", n, len(data)-pos)
			}
			v.Weight = int64(weight)
			v.Items = make([]dict.ItemID, n)
			for i := range v.Items {
				w, np, err := mapreduce.ReadUvarint(data, pos)
				if err != nil {
					return v, 0, err
				}
				pos = np
				v.Items[i] = dict.ItemID(w)
			}
			return v, pos, nil
		},
	}
}

// recordSize is the exact single-record wire size of (k, v) — the honest
// per-record contribution to ShuffleBytes.
func recordSize(k dict.ItemID, v value) int {
	size := mapreduce.UvarintLen(uint64(k)) + mapreduce.UvarintLen(1) +
		mapreduce.UvarintLen(uint64(v.Weight)) + mapreduce.UvarintLen(uint64(len(v.Items)))
	for _, w := range v.Items {
		size += mapreduce.UvarintLen(uint64(w))
	}
	return size
}

// Mine runs D-SEQ and returns the frequent sequences together with the
// engine metrics. With bx nil it mines db alone in this process. Otherwise db
// is this process's input split and bx the wire fabric connecting the
// participating processes (internal/transport): the returned patterns are
// those of the pivot partitions this peer owns — the union over all peers
// equals the single-process output — and the metrics are local to this peer,
// with ShuffleBytes measuring real transport traffic.
func Mine(f *fst.FST, db [][]dict.ItemID, sigma int64, opts Options, cfg mapreduce.Config, bx mapreduce.ByteExchange) ([]miner.Pattern, mapreduce.Metrics, error) {
	return dminer.Mine(db, cfg, buildJob(f, sigma, opts), bx)
}

// buildJob assembles the one-round BSP job of D-SEQ.
func buildJob(f *fst.FST, sigma int64, opts Options) mapreduce.Job[[]dict.ItemID, dict.ItemID, value, miner.Pattern] {
	searcher := pivot.NewSearcher(f, sigma, pivot.Options{UseGrid: opts.UseGrid})
	job := mapreduce.Job[[]dict.ItemID, dict.ItemID, value, miner.Pattern]{
		Map: func(T []dict.ItemID, emit func(dict.ItemID, value)) {
			analysis := searcher.Analyze(T)
			for _, k := range analysis.Pivots {
				rho := T
				if opts.Rewrite {
					rho = searcher.Rewrite(T, analysis, k)
				}
				emit(k, value{Items: rho, Weight: 1})
			}
		},
		Reduce: func(k dict.ItemID, vs []value, emit func(miner.Pattern)) {
			patterns := miner.MineDFS(f, vs, sigma, miner.DFSOptions{
				Pivot:         k,
				EarlyStopping: opts.EarlyStopping,
			})
			for _, p := range patterns {
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
			func(buf []byte, v value) []byte { return dict.AppendPackedKey(buf, v.Items) },
			func(dst *value, src value) { dst.Weight += src.Weight },
		)
	}

	return job
}
