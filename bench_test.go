// Benchmarks that regenerate every table and figure of the paper's evaluation
// (Sec. VII) on scaled-down synthetic datasets, one benchmark per table or
// figure, plus component micro-benchmarks. The experiment harness itself
// lives in internal/experiments; cmd/experiments runs the same harness and
// prints the full tables (see EXPERIMENTS.md).
//
// Run with:
//
//	go test -bench=. -benchmem
package seqmine_test

import (
	"context"
	"sync"
	"testing"

	"seqmine"
	"seqmine/internal/dseq"
	"seqmine/internal/experiments"
	"seqmine/internal/fst"
	"seqmine/internal/mapreduce"
	"seqmine/internal/obs"
)

// benchScale keeps the full benchmark suite in the minutes range. Increase it
// (or run cmd/experiments -scale default) for more pronounced differences
// between the algorithms.
var benchScale = experiments.Scale{
	NYTSentences:     1000,
	AmazonCustomers:  700,
	ClueWebSentences: 1000,
	Workers:          2,
	Seed:             1,
}

var (
	benchOnce sync.Once
	benchData *experiments.Datasets
	benchErr  error
)

func benchDatasets(b *testing.B) *experiments.Datasets {
	b.Helper()
	benchOnce.Do(func() {
		benchData, benchErr = experiments.Generate(benchScale)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchData
}

// runTable is the common driver: it executes the experiment b.N times and
// fails the benchmark if the experiment reports an inconsistency.
func runTable(b *testing.B, f func(*experiments.Datasets) (experiments.Table, error)) {
	ds := benchDatasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := f(ds)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

// --- Table II: dataset and hierarchy characteristics -----------------------

func BenchmarkTableII_DatasetStats(b *testing.B) {
	runTable(b, func(ds *experiments.Datasets) (experiments.Table, error) {
		return experiments.TableII(ds), nil
	})
}

// --- Table III: example constraints and found frequent sequences -----------

func BenchmarkTableIII_ExampleConstraints(b *testing.B) {
	runTable(b, experiments.TableIII)
}

// --- Table IV: candidate subsequence statistics (CSPI) ---------------------

func BenchmarkTableIV_CSPI(b *testing.B) {
	runTable(b, experiments.TableIV)
}

// --- Fig. 9: flexible constraints -------------------------------------------

func BenchmarkFig9a_FlexibleNYT(b *testing.B) {
	runTable(b, experiments.Fig9a)
}

func BenchmarkFig9b_FlexibleAMZN(b *testing.B) {
	runTable(b, experiments.Fig9b)
}

func BenchmarkFig9c_ShuffleSize(b *testing.B) {
	runTable(b, experiments.Fig9c)
}

// --- Fig. 10: detailed analysis (ablations) ---------------------------------

func BenchmarkFig10a_DSeqAblation(b *testing.B) {
	runTable(b, experiments.Fig10a)
}

func BenchmarkFig10b_DCandAblation(b *testing.B) {
	runTable(b, experiments.Fig10b)
}

// --- Fig. 11: scalability ----------------------------------------------------

func BenchmarkFig11a_DataScalability(b *testing.B) {
	runTable(b, experiments.Fig11a)
}

func BenchmarkFig11b_StrongScalability(b *testing.B) {
	runTable(b, experiments.Fig11b)
}

func BenchmarkFig11c_WeakScalability(b *testing.B) {
	runTable(b, experiments.Fig11c)
}

// --- Table V: speed-up over sequential execution -----------------------------

func BenchmarkTableV_Speedup(b *testing.B) {
	runTable(b, experiments.TableV)
}

// --- Fig. 12: LASH setting ----------------------------------------------------

func BenchmarkFig12_LashSetting(b *testing.B) {
	runTable(b, experiments.Fig12)
}

// --- Fig. 13: MLlib setting ---------------------------------------------------

func BenchmarkFig13_MLlibSetting(b *testing.B) {
	runTable(b, experiments.Fig13)
}

// --- Component micro-benchmarks ----------------------------------------------

// BenchmarkAlgorithms_N1 measures one end-to-end run per algorithm on the
// selective N1 constraint (NYT-like data) through the public API.
func BenchmarkAlgorithms_N1(b *testing.B) {
	ds := benchDatasets(b)
	algos := []seqmine.Algorithm{seqmine.SequentialDFS, seqmine.DSeq, seqmine.DCand, seqmine.SemiNaive}
	for _, algo := range algos {
		b.Run(algo.String(), func(b *testing.B) {
			b.ReportAllocs()
			opts := benchOptions(algo)
			for i := 0; i < b.N; i++ {
				if _, err := seqmine.Mine(ds.NYT, ".*ENTITY (VERB+ NOUN+? PREP?) ENTITY.*", 3, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchOptions pins every knob that could change what the end-to-end
// benchmarks measure: the spill and streaming shuffle paths are explicitly
// disabled (not just left to defaults) so a future default change cannot
// silently alter what two runs of a benchmark compare.
func benchOptions(algo seqmine.Algorithm) seqmine.Options {
	opts := seqmine.DefaultOptions()
	opts.Algorithm = algo
	opts.Workers = benchScale.Workers
	opts.Knobs = seqmine.Knobs{}
	return opts
}

// BenchmarkSpanOverhead measures the tracing layer's cost on the D-SEQ hot
// path: the identical mine with no recorder on the context — StartSpan takes
// the nil fast path everywhere — versus a recorder attached and every engine
// span recorded. The off/on pair pins the budget: recording must stay within
// 2% of the untraced run.
func BenchmarkSpanOverhead(b *testing.B) {
	ds := benchDatasets(b)
	f, err := fst.Compile(".*ENTITY (VERB+ NOUN+? PREP?) ENTITY.*", ds.NYT.Dict)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		ctx  context.Context
	}{
		{"off", context.Background()},
		{"on", obs.WithRecorder(context.Background(), obs.NewRecorder("bench", 0))},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := mapreduce.Config{
				MapWorkers:    benchScale.Workers,
				ReduceWorkers: benchScale.Workers,
				Context:       mode.ctx,
			}
			for i := 0; i < b.N; i++ {
				if _, _, err := dseq.Mine(f, ds.NYT.Sequences, 3, dseq.DefaultOptions(), cfg, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlgorithms_T3 measures one end-to-end run per algorithm on the
// loose T3 constraint (AMZN-F-like data).
func BenchmarkAlgorithms_T3(b *testing.B) {
	ds := benchDatasets(b)
	expr := experiments.T3Expr(1, 5)
	algos := []seqmine.Algorithm{seqmine.SequentialDFS, seqmine.DSeq, seqmine.DCand}
	for _, algo := range algos {
		b.Run(algo.String(), func(b *testing.B) {
			b.ReportAllocs()
			opts := benchOptions(algo)
			for i := 0; i < b.N; i++ {
				if _, err := seqmine.Mine(ds.AMZNF, expr, 10, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
