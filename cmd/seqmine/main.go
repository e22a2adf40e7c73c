// Command seqmine mines frequent sequences under a flexible subsequence
// constraint from a text sequence file (and an optional hierarchy file).
//
// Example:
//
//	seqmine -data data/nyt/sequences.txt -hierarchy data/nyt/hierarchy.txt \
//	        -pattern ".*ENTITY (VERB+ NOUN+? PREP?) ENTITY.*" -sigma 10 -algorithm dseq
//
// With -cluster it coordinates a dseq or dcand job over running
// seqmine-worker processes instead of mining in this process:
//
//	seqmine -cluster http://localhost:9090,http://localhost:9091,http://localhost:9092 \
//	        -data data/nyt/sequences.txt -hierarchy data/nyt/hierarchy.txt \
//	        -pattern "(.){2,4}" -sigma 100 -algorithm dcand
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"seqmine/internal/fst"
	"seqmine/internal/obs"
	"seqmine/internal/plan"
	"seqmine/internal/seqdb"
	"seqmine/internal/service"
)

func main() {
	data := flag.String("data", "", "path to the sequence file (one space-separated sequence per line)")
	hierarchy := flag.String("hierarchy", "", "path to the hierarchy file (optional)")
	pattern := flag.String("pattern", "", "pattern expression, e.g. \".*(A)[(.^)|.]*(b).*\"")
	sigma := flag.Int64("sigma", 2, "minimum support threshold")
	algorithm := flag.String("algorithm", "dseq", "algorithm: dfs, dseq or dcand")
	var eo service.ExecOptions
	flag.IntVar(&eo.Workers, "workers", 0, "number of workers (0 = all CPUs)")
	eo.Knobs.BindFlags(flag.CommandLine)
	clusterWorkers := flag.String("cluster", "", "comma-separated seqmine-worker control URLs: run dseq/dcand on this cluster with the fault-tolerant scheduler instead of in-process")
	top := flag.Int("top", 25, "print only the top-k frequent sequences (0 = all)")
	showMetrics := flag.Bool("metrics", true, "print shuffle/runtime metrics for distributed algorithms")
	traceOut := flag.String("trace-out", "", "write the run's trace (on a cluster, merged with every worker's spans) as Chrome trace-event JSON to this file")
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
	if eo.Algorithm, err = plan.ParseAlgorithm(*algorithm); err != nil {
		fmt.Fprintf(os.Stderr, "seqmine: %v\n", err)
		os.Exit(2)
	}

	db, err := seqdb.ReadFiles(*data, *hierarchy)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %d sequences, %d dictionary items\n", db.NumSequences(), db.Dict.Size())

	f, err := fst.Compile(*pattern, db.Dict)
	if err != nil {
		fatal(err)
	}
	var urls []string
	for _, u := range strings.Split(*clusterWorkers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) > 0 {
		eo.Cluster = &service.ClusterOptions{Workers: urls, Expression: *pattern}
	}
	// The run records under one root span; on a cluster the coordinator folds
	// every worker's spans into the same recorder and trace.
	rec := obs.NewRecorder("seqmine", 0)
	ctx, span := obs.StartSpan(obs.WithRecorder(context.Background(), rec), "seqmine.mine")
	patterns, m, stats, err := service.Execute(ctx, f, db, *sigma, eo)
	span.End()
	if err != nil {
		fatal(err)
	}
	if *traceOut != "" {
		buf, err := obs.ChromeTrace(rec.TraceSpans(span.TraceID()))
		if err == nil {
			err = os.WriteFile(*traceOut, buf, 0o644)
		}
		if err != nil {
			fatal(fmt.Errorf("writing trace: %w", err))
		}
		fmt.Printf("trace %s written to %s\n", span.TraceID(), *traceOut)
	}

	fmt.Printf("%d frequent sequences (algorithm %s, sigma %d)\n", len(patterns), eo.Algorithm, *sigma)
	limit := len(patterns)
	if *top > 0 && *top < limit {
		limit = *top
	}
	for _, p := range patterns[:limit] {
		fmt.Printf("%8d  %s\n", p.Freq, db.Dict.DecodeString(p.Items))
	}
	if !*showMetrics {
		return
	}
	if m.ShuffleRecords > 0 {
		fmt.Printf("map time %v, reduce time %v, shuffle %d records / %d bytes over %d partitions\n",
			m.MapTime, m.ReduceTime, m.ShuffleRecords, m.ShuffleBytes, m.Partitions)
		if m.StreamedBatches > 0 {
			fmt.Printf("streamed %d batches (shuffle time %v overlapping the map phase)\n", m.StreamedBatches, m.ShuffleTime)
		}
		if m.SpillCount > 0 {
			fmt.Printf("spilled %d bytes in %d segments\n", m.SpilledBytes, m.SpillCount)
		}
	}
	if c := stats.Cluster; c != nil {
		fmt.Printf("scheduler: %d attempts, %d retries, %d dead workers\n",
			c.Attempts, c.Retries, len(c.DeadWorkers))
		fmt.Printf("dataset store: %d hits, %d misses, %d bytes pushed\n",
			c.StoreHits, c.StoreMisses, c.StorePutBytes)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seqmine:", err)
	os.Exit(1)
}
