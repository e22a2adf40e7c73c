package dseq

import (
	"maps"
	"slices"
	"testing"

	"seqmine/internal/datagen"
	"seqmine/internal/dict"
	"seqmine/internal/fst"
	"seqmine/internal/miner"
)

// BenchmarkDSeqReduce_T3 measures the reduce layer of D-SEQ on one
// 2,500-customer AMZN-F-like draw under the loose T3(1,5) at sigma 31: the
// draw is mapped once, its records grouped by pivot and combined as the
// Aggregate combiner does, then every partition is mined as the reducer
// does, one pivot-restricted MineDFS with early stopping each.
func BenchmarkDSeqReduce_T3(b *testing.B) {
	db, err := datagen.Amazon(datagen.AmazonConfig{NumCustomers: 2500, Seed: 1, Forest: true})
	if err != nil {
		b.Fatal(err)
	}
	// T3(1,5), spelled out: experiments.T3Expr lives in a package that imports dseq.
	f := fst.MustCompile(".*(.^)[.{0,1}(.^)]{1,4}.*", db.Dict)
	job := buildJob(f, 31, DefaultOptions())
	partitions := map[dict.ItemID][]value{}
	for _, T := range db.Sequences {
		job.Map(T, func(k dict.ItemID, v value) { partitions[k] = append(partitions[k], v) })
	}
	pivots := slices.Sorted(maps.Keys(partitions))
	for _, k := range pivots {
		partitions[k] = job.Combine(k, partitions[k])
	}
	patterns := 0
	count := func(miner.Pattern) { patterns++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		patterns = 0
		for _, k := range pivots {
			job.Reduce(k, partitions[k], count)
		}
	}
	b.ReportMetric(float64(len(pivots)), "partitions")
	b.ReportMetric(float64(patterns), "patterns")
}
