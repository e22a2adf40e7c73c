// Command seqmined is the seqmine mining daemon: a long-lived HTTP service
// over the dataset registry, compiled-pattern cache and partitioned query
// executor of internal/service.
//
// Example:
//
//	seqmined -addr :8080 -load nyt=data/nyt/sequences.txt,data/nyt/hierarchy.txt
//	curl -s localhost:8080/mine -d '{"dataset":"nyt","pattern":"(.){2,4}","sigma":100}'
//
// Datasets can also be registered at runtime with PUT /datasets/{name}; see
// DESIGN.md for the full HTTP API.
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

	"seqmine/internal/obs"
	"seqmine/internal/plan"
	"seqmine/internal/service"
)

// loadFlags collects repeated -load name=sequences[,hierarchy] flags.
type loadFlags []string

func (l *loadFlags) String() string     { return strings.Join(*l, " ") }
func (l *loadFlags) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheSize := flag.Int("cache-size", 128, "compiled-pattern cache capacity (entries)")
	workers := flag.Int("workers", 0, "default per-query worker pool size (0 = all CPUs)")
	maxConcurrent := flag.Int("max-concurrent", 0, "maximum queries mining at once (0 = unbounded)")
	queueDepth := flag.Int("queue-depth", 0, "queries that may wait for a mining slot before shedding with 429 (0 = 4x the in-flight bound, negative = no waiting room)")
	resultCache := flag.Int("result-cache", 1024, "result cache capacity (entries), keyed by dataset generation, pattern, sigma and algorithm (0 = disabled)")
	apiKeys := flag.String("api-keys", "", "JSON file of API keys ([{\"key\":...,\"tenant\":...,\"max_inflight\":...,\"max_datasets\":...}]); empty = no authentication")
	catalogDir := flag.String("catalog-dir", "", "persistent dataset catalog directory: registrations survive restarts and may be shared by replicas (empty = in-memory only)")
	timeout := flag.Duration("timeout", 0, "default per-query deadline (0 = none)")
	clusterWorkers := flag.String("cluster", "", "comma-separated seqmine-worker control URLs used by queries with \"distributed\": true")
	var knobs plan.Knobs // the daemon defaults; queries override them per request
	knobs.BindFlags(flag.CommandLine)
	logLevel := flag.String("log-level", "info", "minimum structured-log level: debug, info, warn, error or off")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof profiling endpoints on this extra address (empty = disabled)")
	traceBuffer := flag.Int("trace-buffer", 0, "trace spans retained for GET /debug/trace/{id} (0 = default)")
	var loads loadFlags
	flag.Var(&loads, "load", "dataset to load at startup as name=sequences.txt[,hierarchy.txt] (repeatable)")
	flag.Parse()

	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seqmined: %v\n", err)
		os.Exit(2)
	}
	obs.SetDefaultLogger(obs.NewLogger(os.Stderr, lvl))

	var clusterURLs []string
	if *clusterWorkers != "" {
		for _, u := range strings.Split(*clusterWorkers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				clusterURLs = append(clusterURLs, u)
			}
		}
	}
	var auth *service.Authenticator
	if *apiKeys != "" {
		keys, err := service.LoadAPIKeys(*apiKeys)
		if err == nil {
			auth, err = service.NewAuthenticator(keys)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "seqmined: %v\n", err)
			os.Exit(2)
		}
	}
	var catalog *service.Catalog
	if *catalogDir != "" {
		var err error
		if catalog, err = service.OpenCatalog(*catalogDir); err != nil {
			fmt.Fprintf(os.Stderr, "seqmined: %v\n", err)
			os.Exit(1)
		}
		defer catalog.Close()
	}
	svc := service.New(service.Config{
		CacheSize:       *cacheSize,
		Workers:         *workers,
		MaxConcurrent:   *maxConcurrent,
		QueueDepth:      *queueDepth,
		ResultCacheSize: *resultCache,
		Auth:            auth,
		Catalog:         catalog,
		DefaultTimeout:  *timeout,
		ClusterWorkers:  clusterURLs,
		Knobs:           knobs,
		Obs:             obs.NewRegistry(),
		Recorder:        obs.NewRecorder("seqmined", *traceBuffer),
	})
	if catalog != nil {
		n, err := svc.RestoreCatalog()
		if err != nil {
			fmt.Fprintf(os.Stderr, "seqmined: restoring catalog: %v\n", err)
			os.Exit(1)
		}
		if n > 0 {
			log.Printf("restored %d dataset(s) from catalog %s", n, catalog.Dir())
		}
	}
	for _, spec := range loads {
		name, paths, ok := strings.Cut(spec, "=")
		if !ok || name == "" {
			fmt.Fprintf(os.Stderr, "seqmined: invalid -load %q, want name=sequences[,hierarchy]\n", spec)
			os.Exit(2)
		}
		seqPath, hierPath, _ := strings.Cut(paths, ",")
		start := time.Now()
		if _, err := svc.LoadDataset(name, seqPath, hierPath); err != nil {
			fmt.Fprintf(os.Stderr, "seqmined: loading dataset %q: %v\n", name, err)
			os.Exit(1)
		}
		info, _ := svc.DatasetInfo(name)
		log.Printf("loaded dataset %q in %v (%s)", name, time.Since(start).Round(time.Millisecond), info.Stats)
	}

	srv := &http.Server{
		Addr:        *addr,
		Handler:     service.NewHandler(svc),
		ReadTimeout: 30 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		go func() {
			// The pprof import registers on http.DefaultServeMux; serving it on
			// a separate listener keeps profiling off the public API port.
			log.Printf("seqmined: pprof on http://%s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("seqmined: debug server: %v", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("seqmined listening on %s (%d datasets)", *addr, len(svc.Datasets()))
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		log.Fatalf("seqmined: %v", err)
	case <-ctx.Done():
		log.Printf("seqmined: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("seqmined: shutdown: %v", err)
		}
	}
}
