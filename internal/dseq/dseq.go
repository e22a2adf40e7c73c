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
	"slices"
	"sync"

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
	// Rewrite enables sending rewritten (shortened) input sequences instead
	// of the full sequences.
	Rewrite bool
	// EarlyStopping enables the exact early stopping of local mining: a
	// prefix without the pivot item is grown only from the (position, state)
	// cells that can still output the pivot, and only those count towards its
	// children's supports (miner.DFSOptions.EarlyStopping).
	EarlyStopping bool
	// Aggregate merges identical (rewritten) sequences sent to the same
	// partition by a map worker into a single weighted record.
	Aggregate bool
}

// DefaultOptions enables all enhancements.
func DefaultOptions() Options {
	return Options{Rewrite: true, EarlyStopping: true, Aggregate: true}
}

// value is the communicated record: a (possibly rewritten) input sequence
// with a weight. It is the miner's weighted-sequence type, so a reduce
// partition feeds MineDFS directly without a per-record conversion copy.
type value = miner.WeightedSequence

// codec is the wire encoding of one D-SEQ shuffle record: the pivot key and
// each value as varints (weight, item count, items). The same encoding backs
// the honest SizeOf estimate of in-process runs. Groups decode through
// groupDecoder, into one recycled item array per lent group.
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
			var items []dict.ItemID
			return readValue(data, pos, &items)
		},
		NewGroupDecoder: func() mapreduce.GroupDecoder[value] { return new(groupDecoder) },
	}
}

// readValue decodes the value at pos, appending its items to *items; the
// value's Items alias what it appended.
func readValue(data []byte, pos int, items *[]dict.ItemID) (value, int, error) {
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
	start := len(*items)
	*items = slices.Grow(*items, int(n)) // a no-op in groupDecoder, which grew up front
	for i := uint64(0); i < n; i++ {
		w, np, err := mapreduce.ReadUvarint(data, pos)
		if err != nil {
			return v, 0, err
		}
		pos = np
		*items = append(*items, dict.ItemID(w))
	}
	v.Weight = int64(weight)
	v.Items = (*items)[start:len(*items):len(*items)]
	return v, pos, nil
}

// poisonItem overwrites released items under mapreduce.PoisonOnRelease: it is
// no item of any dictionary, so a retained sequence mines to wrong output.
const poisonItem = ^dict.ItemID(0)

// groupDecoder decodes the sequences of lent groups into one item array,
// which it reuses once the group is released. Every item takes at least one
// encoded byte, so the array is grown once per encoded region, before its
// first value, to hold as many items as the region has bytes: growing never
// moves the items of values already decoded. An array outgrown during a loan
// is kept until Release, so that poisoning reaches it too.
type groupDecoder struct {
	items    []dict.ItemID
	outgrown [][]dict.ItemID
}

func (d *groupDecoder) Decode(vals []value, raw []byte, count int) ([]value, error) {
	if count > len(raw) {
		return vals, fmt.Errorf("dseq: %d sequences claimed in %d bytes", count, len(raw))
	}
	if cap(d.items)-len(d.items) < len(raw) {
		if len(d.items) > 0 {
			d.outgrown = append(d.outgrown, d.items)
		}
		d.items = make([]dict.ItemID, 0, max(2*cap(d.items), len(raw)))
	}
	pos := 0
	for i := 0; i < count; i++ {
		v, np, err := readValue(raw, pos, &d.items)
		if err != nil {
			return vals, err
		}
		pos = np
		vals = append(vals, v)
	}
	if pos != len(raw) {
		return vals, fmt.Errorf("dseq: %d trailing bytes after %d sequences", len(raw)-pos, count)
	}
	return vals, nil
}

func (d *groupDecoder) Release(poison bool) {
	if poison {
		for _, items := range append(d.outgrown, d.items) {
			for i := range items {
				items[i] = poisonItem
			}
		}
	}
	clear(d.outgrown)
	d.outgrown, d.items = d.outgrown[:0], d.items[:0]
}

// seqCodec is the codec of every D-SEQ job. Sharing one lets the engine's
// pooled leases keep their group decoders, and their item arrays, from job to
// job.
var seqCodec = codec()

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
	searcher := pivot.NewSearcher(f, sigma, pivot.Options{})
	// One Analysis per map worker, reused sequence after sequence.
	analyses := sync.Pool{New: func() any { return new(pivot.Analysis) }}
	job := mapreduce.Job[[]dict.ItemID, dict.ItemID, value, miner.Pattern]{
		Map: func(T []dict.ItemID, emit func(dict.ItemID, value)) {
			analysis := searcher.AnalyzeInto(T, analyses.Get().(*pivot.Analysis))
			defer analyses.Put(analysis)
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
	job.Codec = &seqCodec
	if opts.Aggregate {
		job.Combine = dminer.GroupCombiner[dict.ItemID](
			func(buf []byte, v value) []byte { return dict.AppendPackedKey(buf, v.Items) },
			func(dst *value, src value) { dst.Weight += src.Weight },
		)
	}

	return job
}
