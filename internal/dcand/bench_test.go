package dcand_test

import (
	"maps"
	"slices"
	"testing"

	"seqmine/internal/dcand"
	"seqmine/internal/dict"
	"seqmine/internal/experiments"
	"seqmine/internal/fst"
	"seqmine/internal/miner"
	"seqmine/internal/nfa"
)

// BenchmarkDCandMap_T3 measures one full map-phase pass — flat run walk,
// per-pivot trie insertion, minimize (or not) and serialize, per sequence —
// over the AMZN-F T3 workload of pivot's BenchmarkPivotAnalyze_T3: the
// per-sequence kernel behind BenchmarkAlgorithms_T3/D-CAND.
func BenchmarkDCandMap_T3(b *testing.B) {
	ds, err := experiments.Generate(experiments.Scale{
		NYTSentences: 1, AmazonCustomers: 500, ClueWebSentences: 1, Workers: 2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	f := fst.MustCompile(experiments.T3Expr(1, 5), ds.AMZNF.Dict)
	for _, cfg := range []struct {
		name string
		opts dcand.Options
	}{
		{"Minimized", dcand.DefaultOptions()},
		{"Tries", dcand.Options{}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			mapFn := dcand.MapFunc(f, 10, cfg.opts)
			emit := func(dict.ItemID, []byte) {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, T := range ds.AMZNF.Sequences {
					mapFn(T, emit)
				}
			}
		})
	}
}

// BenchmarkDCandReduce_T3 measures the reduce layer on the map output of
// BenchmarkDCandMap_T3/Minimized: the records grouped by pivot, identical
// NFAs merged into one weighted NFA as the combiner does, then every
// partition decoded into a pooled Forest and mined at the same sigma.
func BenchmarkDCandReduce_T3(b *testing.B) {
	ds, err := experiments.Generate(experiments.Scale{
		NYTSentences: 1, AmazonCustomers: 500, ClueWebSentences: 1, Workers: 2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	f := fst.MustCompile(experiments.T3Expr(1, 5), ds.AMZNF.Dict)
	type record struct {
		data   []byte
		weight int64
	}
	partitions := map[dict.ItemID][]record{}
	index := map[dict.ItemID]map[string]int{}
	mapFn := dcand.MapFunc(f, 10, dcand.DefaultOptions())
	for _, T := range ds.AMZNF.Sequences {
		mapFn(T, func(k dict.ItemID, data []byte) {
			if index[k] == nil {
				index[k] = map[string]int{}
			}
			if i, ok := index[k][string(data)]; ok {
				partitions[k][i].weight++
				return
			}
			index[k][string(data)] = len(partitions[k])
			partitions[k] = append(partitions[k], record{data: data, weight: 1})
		})
	}
	pivots := slices.Sorted(maps.Keys(partitions))
	patterns := 0
	count := func(miner.Pattern) { patterns++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		patterns = 0
		for _, k := range pivots {
			fo := nfa.AcquireForest()
			for _, r := range partitions[k] {
				if err := fo.Add(r.data, r.weight); err != nil {
					b.Fatal(err)
				}
			}
			fo.Mine(10, k, count)
			fo.Release()
		}
	}
	b.ReportMetric(float64(len(pivots)), "partitions")
	b.ReportMetric(float64(patterns), "patterns")
}
