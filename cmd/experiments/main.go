// Command experiments runs the evaluation harness that regenerates every
// table and figure of the paper on the synthetic datasets (see README.md, and
// DESIGN.md for the harness and its run table).
//
// Example:
//
//	experiments -scale default -markdown > results.md
package main

import (
	"flag"
	"fmt"
	"os"

	"seqmine/internal/experiments"
)

func main() {
	scaleName := flag.String("scale", "default", "experiment scale: tiny, small, default")
	nyt := flag.Int("nyt", 0, "override: number of NYT-like sentences")
	amzn := flag.Int("amzn", 0, "override: number of AMZN-like customers")
	cw := flag.Int("cw", 0, "override: number of CW-like sentences")
	workers := flag.Int("workers", 0, "override: number of workers")
	markdown := flag.Bool("markdown", false, "emit GitHub-flavored markdown tables")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleName {
	case "tiny":
		scale = experiments.Scale{NYTSentences: 600, AmazonCustomers: 400, ClueWebSentences: 600, Workers: 4, Seed: 1}
	case "small":
		scale = experiments.SmallScale()
	case "default":
		scale = experiments.DefaultScale()
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	if *nyt > 0 {
		scale.NYTSentences = *nyt
	}
	if *amzn > 0 {
		scale.AmazonCustomers = *amzn
	}
	if *cw > 0 {
		scale.ClueWebSentences = *cw
	}
	if *workers > 0 {
		scale.Workers = *workers
	}

	if err := experiments.RunAll(scale, os.Stdout, *markdown); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
