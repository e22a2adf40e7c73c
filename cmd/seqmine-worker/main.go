// Command seqmine-worker is one process of a seqmine mining cluster.
//
// It serves two listeners: a control HTTP API (POST /run, GET /healthz) on
// -listen and the TCP shuffle fabric on -data-listen. A cluster is simply N
// of these processes:
//
//	seqmine-worker -listen :9090 -data-listen :9190 &
//	seqmine-worker -listen :9091 -data-listen :9191 &
//	seqmine-worker -listen :9092 -data-listen :9192 &
//
// A coordinator runs jobs on such a cluster: seqmine -cluster, or seqmined
// -cluster with "distributed": true on POST /mine.
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
	"syscall"
	"time"

	"seqmine/internal/cluster"
	"seqmine/internal/obs"
	"seqmine/internal/transport"
)

func main() {
	listen := flag.String("listen", ":9090", "control HTTP listen address")
	dataListen := flag.String("data-listen", ":9190", "shuffle (TCP transport) listen address")
	dataAdvertise := flag.String("data-advertise", "", "shuffle address advertised to peers (default: the data listener's address)")
	datasetCache := flag.Int("dataset-cache", cluster.DefaultStoreEntries, "datasets held in this worker's shared dataset store (LRU-evicted beyond it)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof profiling endpoints on this extra address (empty = disabled)")
	logLevel := flag.String("log-level", "info", "minimum structured-log level: debug, info, warn, error or off")
	spillDir := flag.String("spill-dir", "", "directory for this worker's shuffle spill segments (default: system temp dir)")
	flag.Parse()

	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seqmine-worker: %v\n", err)
		os.Exit(2)
	}
	obs.SetDefaultLogger(obs.NewLogger(os.Stderr, lvl))

	runWorker(*listen, *dataListen, *dataAdvertise, *spillDir, *debugAddr, *datasetCache)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seqmine-worker:", err)
	os.Exit(1)
}
