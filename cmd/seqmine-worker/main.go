// Command seqmine-worker is one process of a seqmine mining cluster.
//
// In worker mode (the default) it serves two listeners: a control HTTP API
// (POST /run, GET /healthz) on -listen and the TCP shuffle fabric on
// -data-listen. A cluster is simply N of these processes:
//
//	seqmine-worker -listen :9090 -data-listen :9190 &
//	seqmine-worker -listen :9091 -data-listen :9191 &
//	seqmine-worker -listen :9092 -data-listen :9192 &
//
// With -submit it acts as the coordinator CLI instead: it loads a dataset,
// splits it across the given workers, runs a distributed D-SEQ or D-CAND job
// over the TCP transport and prints the merged patterns in the same format
// as cmd/seqmine:
//
//	seqmine-worker -submit -workers http://localhost:9090,http://localhost:9091,http://localhost:9092 \
//	               -data data/nyt/sequences.txt -hierarchy data/nyt/hierarchy.txt \
//	               -pattern "(.){2,4}" -sigma 100 -algorithm dcand
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served on -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"seqmine/internal/cluster"
	"seqmine/internal/obs"
	"seqmine/internal/plan"
	"seqmine/internal/seqdb"
	"seqmine/internal/transport"
)

func main() {
	// Worker mode flags.
	listen := flag.String("listen", ":9090", "control HTTP listen address")
	dataListen := flag.String("data-listen", ":9190", "shuffle (TCP transport) listen address")
	dataAdvertise := flag.String("data-advertise", "", "shuffle address advertised to peers (default: the data listener's address)")
	datasetCache := flag.Int("dataset-cache", cluster.DefaultStoreEntries, "datasets held in this worker's shared dataset store (LRU-evicted beyond it)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof profiling endpoints on this extra address (empty = disabled)")
	logLevel := flag.String("log-level", "info", "minimum structured-log level: debug, info, warn, error or off")

	// Submit (coordinator) mode flags.
	submit := flag.Bool("submit", false, "submit a job to a running cluster instead of serving")
	workers := flag.String("workers", "", "comma-separated worker control URLs (submit mode)")
	data := flag.String("data", "", "path to the sequence file (submit mode)")
	hierarchy := flag.String("hierarchy", "", "path to the hierarchy file (optional, submit mode)")
	pattern := flag.String("pattern", "", "pattern expression (submit mode)")
	sigma := flag.Int64("sigma", 2, "minimum support threshold (submit mode)")
	algorithm := flag.String("algorithm", "dcand", "algorithm: dseq or dcand (submit mode)")
	// The query plan of submit mode; -spill-dir doubles as this worker's spill
	// directory in worker mode.
	var p plan.Plan
	p.Knobs.BindFlags(flag.CommandLine)
	top := flag.Int("top", 25, "print only the top-k frequent sequences (0 = all, submit mode)")
	showMetrics := flag.Bool("metrics", true, "print shuffle/runtime metrics (submit mode)")
	traceOut := flag.String("trace-out", "", "write the job's merged trace as Chrome trace-event JSON to this file (submit mode)")
	flag.Parse()

	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seqmine-worker: %v\n", err)
		os.Exit(2)
	}
	obs.SetDefaultLogger(obs.NewLogger(os.Stderr, lvl))

	if *submit {
		p.Algorithm = plan.Algorithm(strings.ToLower(*algorithm))
		runSubmit(p, *workers, *data, *hierarchy, *pattern, *sigma, *top, *showMetrics, *traceOut)
		return
	}
	runWorker(*listen, *dataListen, *dataAdvertise, p.SpillTmpDir, *debugAddr, *datasetCache)
}

// runWorker serves the control API and the shuffle fabric until SIGINT/TERM.
func runWorker(listen, dataListen, dataAdvertise, spillDir, debugAddr string, datasetCache int) {
	node, err := transport.NewNode(dataListen, transport.Config{Advertise: dataAdvertise})
	if err != nil {
		fatal(err)
	}
	defer node.Close()

	worker := cluster.NewWorker(node)
	worker.SpillDir = spillDir
	worker.Store = cluster.NewStore(datasetCache)
	worker.Rec = obs.NewRecorder("worker "+node.Addr(), 0)
	worker.Obs = obs.NewRegistry()
	srv := &http.Server{
		Addr:        listen,
		Handler:     worker.Handler(),
		ReadTimeout: 30 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if debugAddr != "" {
		go func() {
			// The pprof import registers on http.DefaultServeMux; serving it on
			// a separate listener keeps profiling off the control port.
			log.Printf("seqmine-worker: pprof on http://%s/debug/pprof/", debugAddr)
			if err := http.ListenAndServe(debugAddr, nil); err != nil {
				log.Printf("seqmine-worker: debug server: %v", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("seqmine-worker: control on %s, shuffle on %s", listen, node.Addr())
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		log.Fatalf("seqmine-worker: %v", err)
	case <-ctx.Done():
		log.Printf("seqmine-worker: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("seqmine-worker: shutdown: %v", err)
		}
	}
}

// runSubmit coordinates one distributed job and prints the merged result.
func runSubmit(p plan.Plan, workers, data, hierarchy, pattern string, sigma int64, top int, showMetrics bool, traceOut string) {
	var urls []string
	for _, u := range strings.Split(workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 || data == "" || pattern == "" {
		fmt.Fprintln(os.Stderr, "seqmine-worker: -submit requires -workers, -data and -pattern")
		flag.Usage()
		os.Exit(2)
	}
	if p.Algorithm != plan.AlgoDSeq && p.Algorithm != plan.AlgoDCand {
		fmt.Fprintf(os.Stderr, "seqmine-worker: algorithm %q cannot run distributed (want dseq or dcand)\n", p.Algorithm)
		os.Exit(2)
	}

	db, err := seqdb.ReadFiles(data, hierarchy)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %d sequences, %d dictionary items\n", db.NumSequences(), db.Dict.Size())

	coord := &cluster.Coordinator{Workers: urls}
	// A local recorder collects the coordinator's spans plus every worker's
	// shipped spans, so -trace-out captures the whole distributed job.
	rec := obs.NewRecorder("submit", 0)
	ctx := obs.WithRecorder(context.Background(), rec)
	start := time.Now()
	res, err := coord.Mine(ctx, db, pattern, sigma, p)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	if traceOut != "" {
		buf, err := obs.ChromeTrace(rec.TraceSpans(res.TraceID))
		if err == nil {
			err = os.WriteFile(traceOut, buf, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "seqmine-worker: writing trace: %v\n", err)
		} else {
			fmt.Printf("trace %s written to %s\n", res.TraceID, traceOut)
		}
	}

	fmt.Printf("%d frequent sequences (algorithm %s, sigma %d)\n", len(res.Patterns), p.Algorithm, sigma)
	limit := len(res.Patterns)
	if top > 0 && top < limit {
		limit = top
	}
	for _, pat := range res.Patterns[:limit] {
		fmt.Printf("%8d  %s\n", pat.Freq, db.Dict.DecodeString(pat.Items))
	}
	if showMetrics {
		m := res.Metrics
		fmt.Printf("%d workers, wall %v, map time %v, reduce time %v, shuffle %d records / %d bytes on the wire (%d read) over %d partitions\n",
			len(urls), elapsed.Round(time.Millisecond), m.MapTime, m.ReduceTime,
			m.ShuffleRecords, m.ShuffleBytes, res.WireBytesIn, m.Partitions)
		fmt.Printf("scheduler: %d tasks, %d attempts, %d retries, %d dead workers\n",
			res.Tasks, res.Attempts, res.Retries, len(res.DeadWorkers))
		fmt.Printf("dataset store: %d hits, %d misses, %d bytes pushed\n",
			res.StoreHits, res.StoreMisses, res.StorePutBytes)
		if m.StreamedBatches > 0 {
			fmt.Printf("streamed %d batches across the cluster (max shuffle time %v overlapping the map phase)\n", m.StreamedBatches, m.ShuffleTime)
		}
		if m.SpillCount > 0 {
			fmt.Printf("spilled %d bytes in %d segments across the cluster\n", m.SpilledBytes, m.SpillCount)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seqmine-worker:", err)
	os.Exit(1)
}
