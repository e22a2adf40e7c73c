// Command seqmine mines frequent sequences under a flexible subsequence
// constraint from a text sequence file (and an optional hierarchy file).
//
// Example:
//
//	seqmine -data data/nyt/sequences.txt -hierarchy data/nyt/hierarchy.txt \
//	        -pattern ".*ENTITY (VERB+ NOUN+? PREP?) ENTITY.*" -sigma 10 -algorithm dseq
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"seqmine"
	"seqmine/internal/obs"
)

func main() {
	data := flag.String("data", "", "path to the sequence file (one space-separated sequence per line)")
	hierarchy := flag.String("hierarchy", "", "path to the hierarchy file (optional)")
	pattern := flag.String("pattern", "", "pattern expression, e.g. \".*(A)[(.^)|.]*(b).*\"")
	sigma := flag.Int64("sigma", 2, "minimum support threshold")
	algorithm := flag.String("algorithm", "dseq", "algorithm: dfs, count, dseq, dcand, naive, seminaive")
	workers := flag.Int("workers", 0, "number of workers (0 = all CPUs)")
	opts := seqmine.DefaultOptions()
	opts.Knobs.BindFlags(flag.CommandLine)
	clusterWorkers := flag.String("cluster", "", "comma-separated seqmine-worker control URLs: run dseq/dcand on this cluster with the fault-tolerant scheduler instead of in-process")
	top := flag.Int("top", 25, "print only the top-k frequent sequences (0 = all)")
	showMetrics := flag.Bool("metrics", true, "print shuffle/runtime metrics for distributed algorithms")
	logLevel := flag.String("log-level", "info", "minimum structured-log level: debug, info, warn, error or off")
	flag.Parse()

	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seqmine: %v\n", err)
		os.Exit(2)
	}
	obs.SetDefaultLogger(obs.NewLogger(os.Stderr, lvl))

	if *data == "" || *pattern == "" {
		fmt.Fprintln(os.Stderr, "seqmine: -data and -pattern are required")
		flag.Usage()
		os.Exit(2)
	}

	algos := map[string]seqmine.Algorithm{
		"dfs":       seqmine.SequentialDFS,
		"count":     seqmine.SequentialCount,
		"dseq":      seqmine.DSeq,
		"dcand":     seqmine.DCand,
		"naive":     seqmine.Naive,
		"seminaive": seqmine.SemiNaive,
	}
	algo, ok := algos[strings.ToLower(*algorithm)]
	if !ok {
		fmt.Fprintf(os.Stderr, "seqmine: unknown algorithm %q\n", *algorithm)
		os.Exit(2)
	}

	db, err := seqmine.ReadDatabaseFiles(*data, *hierarchy)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %d sequences, %d dictionary items\n", db.NumSequences(), db.Dict.Size())

	opts.Algorithm = algo
	opts.Workers = *workers
	for _, u := range strings.Split(*clusterWorkers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			opts.ClusterWorkers = append(opts.ClusterWorkers, u)
		}
	}
	result, err := seqmine.Mine(db, *pattern, *sigma, opts)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%d frequent sequences (algorithm %s, sigma %d)\n", len(result.Patterns), algo, *sigma)
	limit := len(result.Patterns)
	if *top > 0 && *top < limit {
		limit = *top
	}
	for _, p := range result.Patterns[:limit] {
		fmt.Printf("%8d  %s\n", p.Freq, seqmine.DecodePattern(db, p))
	}
	if *showMetrics && result.Metrics.ShuffleRecords > 0 {
		m := result.Metrics
		fmt.Printf("map time %v, reduce time %v, shuffle %d records / %d bytes over %d partitions\n",
			m.MapTime, m.ReduceTime, m.ShuffleRecords, m.ShuffleBytes, m.Partitions)
		if m.StreamedBatches > 0 {
			fmt.Printf("streamed %d batches (shuffle time %v overlapping the map phase)\n", m.StreamedBatches, m.ShuffleTime)
		}
		if m.SpillCount > 0 {
			fmt.Printf("spilled %d bytes in %d segments\n", m.SpilledBytes, m.SpillCount)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seqmine:", err)
	os.Exit(1)
}
