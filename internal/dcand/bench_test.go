package dcand_test

import (
	"testing"

	"seqmine/internal/dcand"
	"seqmine/internal/dict"
	"seqmine/internal/experiments"
	"seqmine/internal/fst"
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
