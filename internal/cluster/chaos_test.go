package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seqmine/internal/cluster"
	"seqmine/internal/datagen"
	"seqmine/internal/fst"
	"seqmine/internal/miner"
	"seqmine/internal/paperex"
	"seqmine/internal/plan"
	"seqmine/internal/transport"
)

// chaosWorker is a worker that dies abruptly a short while after its first
// job spec arrives: the transport node closes (tearing every shuffle
// connection down mid-stream, like a SIGKILL would) and the control
// connections are severed. Its /healthz keeps failing afterwards.
type chaosWorker struct {
	worker *cluster.Worker
	node   *transport.Node
	srv    *httptest.Server
	delay  time.Duration
	killed atomic.Bool
	once   sync.Once
}

func (c *chaosWorker) handler() http.Handler {
	inner := c.worker.Handler()
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if c.killed.Load() {
			http.Error(rw, "killed", http.StatusServiceUnavailable)
			return
		}
		if r.Method == http.MethodPost && r.URL.Path == "/run" {
			c.once.Do(func() {
				go func() {
					time.Sleep(c.delay)
					c.killed.Store(true)
					c.node.Close()                 // shuffle connections die mid-stream
					c.srv.CloseClientConnections() // control connections die too
				}()
			})
		}
		inner.ServeHTTP(rw, r)
	})
}

// TestChaosKillWorkerMidShuffle is the fault-tolerance acceptance test: one
// of three workers is killed while a distributed job is in flight. The
// scheduler must declare it dead, retry the attempt under a fresh attempt id
// on a gang of the two survivors — which split the whole input between them —
// and produce a pattern set byte-identical to the single-process run, with
// non-zero retry metrics and no goroutine leaks.
func TestChaosKillWorkerMidShuffle(t *testing.T) {
	before := runtime.NumGoroutine()

	db, err := datagen.NYT(datagen.NYTConfig{NumSentences: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const expr, sigma = "[.*(.)]{1,3}.*", int64(20)
	f := fst.MustCompile(expr, db.Dict)
	want := inProcess(t, plan.AlgoDSeq, f, db, sigma)
	if len(want) == 0 {
		t.Fatal("reference run found no patterns")
	}

	runChaos := func(t *testing.T, closers *[]func()) {
		// Two healthy workers plus one that dies shortly into its first run.
		urls := make([]string, 0, 3)
		var log runLog
		for i := 0; i < 2; i++ {
			node, err := transport.NewNode("127.0.0.1:0", transport.Config{})
			if err != nil {
				t.Fatal(err)
			}
			*closers = append(*closers, func() { node.Close() })
			srv := httptest.NewServer(log.wrap(cluster.NewWorker(node).Handler()))
			*closers = append(*closers, srv.Close)
			urls = append(urls, srv.URL)
		}
		node, err := transport.NewNode("127.0.0.1:0", transport.Config{})
		if err != nil {
			t.Fatal(err)
		}
		*closers = append(*closers, func() { node.Close() })
		chaos := &chaosWorker{worker: cluster.NewWorker(node), node: node, delay: 15 * time.Millisecond}
		chaos.srv = httptest.NewUnstartedServer(nil)
		chaos.srv.Config.Handler = chaos.handler()
		chaos.srv.Start()
		*closers = append(*closers, chaos.srv.Close)
		urls = append(urls, chaos.srv.URL)

		coord := &cluster.Coordinator{Workers: urls}
		coord.SetHeartbeat(100*time.Millisecond, 0)
		opts := plan.Plan{Algorithm: plan.AlgoDSeq}
		res, err := coord.Mine(context.Background(), db, expr, sigma, opts)
		if err != nil {
			t.Fatalf("Mine with a dying worker: %v", err)
		}
		if !reflect.DeepEqual(res.Patterns, want) {
			t.Errorf("patterns after worker death differ from the single-process run (%d vs %d)",
				len(res.Patterns), len(want))
		}
		if res.Retries == 0 || res.Attempts != res.Retries+1 {
			t.Errorf("expected retried attempts, one at a time: attempts=%d retries=%d", res.Attempts, res.Retries)
		}
		found := false
		for _, dead := range res.DeadWorkers {
			if dead == chaos.srv.URL {
				found = true
			}
		}
		if !found {
			t.Errorf("dead workers %v do not include the killed worker %s", res.DeadWorkers, chaos.srv.URL)
		}
		// Only the two survivors are logged, so a winning gang of two logged
		// runs, each with two data peers, is exactly the survivors; its merged
		// answer is the in-process one (checked above).
		gang := log.take()
		if len(gang) != 2 {
			t.Errorf("winning gang logged %d survivor runs, want 2", len(gang))
		}
		for _, run := range gang {
			if len(run.spec.DataPeers) != 2 {
				t.Errorf("survivor %d ran the winning attempt with %d data peers, want 2", run.spec.Peer, len(run.spec.DataPeers))
			}
		}
	}
	var closers []func()
	runChaos(t, &closers)
	// Tear the fixture servers down and drop idle keep-alive connections, so
	// the leak check below sees only what the job itself might have leaked.
	for _, shutdown := range closers {
		shutdown()
	}
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	if t.Failed() {
		return
	}
	// Everything the job started — schedulers, heartbeats, attempt
	// goroutines, worker runs, transport loops — must wind down.
	settleGoroutines(t, before, 3)
}

// settleGoroutines waits up to 10 s for the goroutine count to fall back to
// at most before+slack, and fails with every stack when it does not.
func settleGoroutines(t *testing.T, before, slack int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<17)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestCoordinatorCancelReleases: cancelling Mine while every gang member's
// /run is held must return context.Canceled promptly and leave nothing
// behind — the attempt in flight still posts its outcome after the scheduler
// has returned — and the same workers must then serve a fresh job exactly.
func TestCoordinatorCancelReleases(t *testing.T) {
	db := paperDatabase(t)
	f := fst.MustCompile(paperex.PatternExpression, db.Dict)
	want := inProcess(t, plan.AlgoDSeq, f, db, paperex.Sigma)

	const n = 3
	gate := make(chan struct{})
	held := make(chan struct{}, n)
	hold := func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/run" {
				select {
				case <-gate:
				default:
					// Read the body first: only then does the server watch the
					// connection and cancel r.Context() when the client leaves.
					body, err := io.ReadAll(r.Body)
					if err != nil {
						return
					}
					r.Body = io.NopCloser(bytes.NewReader(body))
					held <- struct{}{}
					select {
					case <-gate:
					case <-r.Context().Done():
						return
					}
				}
			}
			inner.ServeHTTP(rw, r)
		})
	}
	coord := &cluster.Coordinator{Workers: startWrappedWorkers(t, n, hold)}
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // runs before the servers close, should the test fail early
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := coord.Mine(ctx, db, paperex.PatternExpression, paperex.Sigma, plan.Plan{Algorithm: plan.AlgoDSeq})
		done <- err
	}()
	for i := 0; i < n; i++ {
		select {
		case <-held:
		case err := <-done:
			t.Fatalf("Mine returned before every /run was held: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d /run requests reached the gate", i, n)
		}
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Mine = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Mine did not return within 2 s of its context being cancelled")
	}
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	// No slack: an attempt goroutine stranded on its outcome send is one
	// goroutine, and it must show.
	settleGoroutines(t, before, 0)

	release()
	res, err := coord.Mine(context.Background(), db, paperex.PatternExpression, paperex.Sigma, plan.Plan{Algorithm: plan.AlgoDSeq})
	if err != nil {
		t.Fatalf("fresh Mine after the cancelled one: %v", err)
	}
	if !reflect.DeepEqual(res.Patterns, want) {
		t.Errorf("fresh job after cancellation differs from the single-process run (%d vs %d patterns)",
			len(res.Patterns), len(want))
	}
}

// scriptedWorker answers the control API from a script instead of mining. Its
// /run fails with a 500 naming peer accuse while the gang contains a dying
// worker, and returns an empty result otherwise; a dying worker goes down as
// it answers its first /run (503 on every request afterwards, /healthz
// included, like a process mid-kill). gangHasDying reports only once the
// dying worker is down: the others fail because it died, so no failure can
// cancel its /run before that /run has taken it down.
type scriptedWorker struct {
	addr   string // the advertised shuffle address, never dialled
	accuse int
	dying  bool
	down   atomic.Bool
}

func (w *scriptedWorker) handler(gangHasDying func(ctx context.Context, dataPeers []string) bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(rw).Encode(cluster.HealthResponse{Status: "ok", DataAddr: w.addr})
	})
	mux.HandleFunc("GET /datasets/{id}", func(rw http.ResponseWriter, r *http.Request) {
		_, _ = rw.Write([]byte(`{}`))
	})
	mux.HandleFunc("POST /run", func(rw http.ResponseWriter, r *http.Request) {
		var spec cluster.JobSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		w.down.Store(w.dying)
		if gangHasDying(r.Context(), spec.DataPeers) {
			rw.WriteHeader(http.StatusInternalServerError)
			fmt.Fprintf(rw, `{"error":"transport: peer %d failed: receiving: EOF","failed_peer":%d}`, w.accuse, w.accuse)
			return
		}
		_ = json.NewEncoder(rw).Encode(cluster.JobResult{})
	})
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if w.down.Load() {
			http.Error(rw, "killed", http.StatusServiceUnavailable)
			return
		}
		mux.ServeHTTP(rw, r)
	})
}

// TestHearsayDoesNotEvictHealthyWorker replays the cascade behind the
// TestChaosKillWorkerMidShuffle flake deterministically: the dying worker
// takes its peers' shuffles down with it, and every member's report accuses a
// different peer — a three-way tie whose lowest index is a healthy worker.
// Reports are hearsay: the scheduler must evict only the member that no
// longer answers /healthz and win on the two healthy workers at the first
// retry.
func TestHearsayDoesNotEvictHealthyWorker(t *testing.T) {
	workers := []*scriptedWorker{
		{addr: "peer-0", accuse: 1},
		{addr: "peer-1", accuse: 2},
		{addr: "peer-2", accuse: 0, dying: true},
	}
	gangHasDying := func(ctx context.Context, dataPeers []string) bool {
		for _, addr := range dataPeers {
			for _, w := range workers {
				if w.addr == addr && w.dying {
					for !w.down.Load() && ctx.Err() == nil {
						time.Sleep(time.Millisecond)
					}
					return true
				}
			}
		}
		return false
	}
	urls := make([]string, len(workers))
	var log runLog
	for i, w := range workers {
		srv := httptest.NewServer(log.wrap(w.handler(gangHasDying)))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	coord := &cluster.Coordinator{Workers: urls}
	coord.SetHeartbeat(time.Hour, 0)
	res, err := coord.Mine(context.Background(), paperDatabase(t), paperex.PatternExpression, paperex.Sigma,
		plan.Plan{Algorithm: plan.AlgoDSeq})
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	gang := log.take()
	if !reflect.DeepEqual(res.DeadWorkers, []string{urls[2]}) || res.Retries != 1 || len(gang) != 2 {
		t.Errorf("dead workers %v, retries %d, gang of %d; want only %s dead, 1 retry, gang of 2",
			res.DeadWorkers, res.Retries, len(gang), urls[2])
	}
	for _, run := range gang {
		if len(run.spec.DataPeers) != 2 {
			t.Errorf("worker %d ran the winning attempt with %d data peers, want 2", run.spec.Peer, len(run.spec.DataPeers))
		}
	}
}

// TestCoordinatorResubmissionShipsNoBytes pins the dataset-store acceptance
// criterion: a second job against the same database must find the bundle on
// every worker and ship zero sequence bytes.
func TestCoordinatorResubmissionShipsNoBytes(t *testing.T) {
	db := paperDatabase(t)
	coord := &cluster.Coordinator{Workers: startWorkers(t, 3)}

	first, err := coord.Mine(context.Background(), db, paperex.PatternExpression, paperex.Sigma, plan.Plan{Algorithm: plan.AlgoDSeq})
	if err != nil {
		t.Fatalf("first Mine: %v", err)
	}
	if first.StoreMisses != 3 || first.StorePutBytes == 0 {
		t.Fatalf("first run should push the bundle to all 3 workers: %+v", first.Stats)
	}
	if first.StoreHits != 0 {
		t.Fatalf("first run should not hit the store: %+v", first.Stats)
	}

	second, err := coord.Mine(context.Background(), db, paperex.PatternExpression, paperex.Sigma, plan.Plan{Algorithm: plan.AlgoDSeq})
	if err != nil {
		t.Fatalf("second Mine: %v", err)
	}
	if second.StoreHits != 3 || second.StoreMisses != 0 || second.StorePutBytes != 0 {
		t.Errorf("resubmission should ship zero sequence bytes: %+v", second.Stats)
	}
	if !reflect.DeepEqual(first.Patterns, second.Patterns) {
		t.Error("resubmission produced different patterns")
	}

	// A different coordinator instance hits the same worker-side store.
	fresh := &cluster.Coordinator{Workers: coord.Workers}
	third, err := fresh.Mine(context.Background(), db, paperex.PatternExpression, paperex.Sigma, plan.Plan{Algorithm: plan.AlgoDSeq})
	if err != nil {
		t.Fatalf("third Mine: %v", err)
	}
	if third.StoreMisses != 0 || third.StorePutBytes != 0 {
		t.Errorf("a fresh coordinator should still hit the worker stores: %+v", third.Stats)
	}
}

// TestRetryOnWarmWorkersShipsNoBytes is the in-process twin of the dataset
// store check of scripts/chaos-smoke.sh: on workers that already hold the
// bundle, a job whose first attempt fails — one worker dies as its /run
// arrives — is retried on the survivors and still ships zero bundle bytes.
func TestRetryOnWarmWorkersShipsNoBytes(t *testing.T) {
	db := paperDatabase(t)
	f := fst.MustCompile(paperex.PatternExpression, db.Dict)
	want := inProcess(t, plan.AlgoDSeq, f, db, paperex.Sigma)

	// The last worker answers everything with 503 from its first /run after
	// armed is set: a process killed before it could open its exchange.
	var armed, killed atomic.Bool
	wrapped := 0
	dieOnArmedRun := func(inner http.Handler) http.Handler {
		if wrapped++; wrapped < 3 {
			return inner
		}
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if armed.Load() && r.Method == http.MethodPost && r.URL.Path == "/run" {
				killed.Store(true)
			}
			if killed.Load() {
				http.Error(rw, "killed", http.StatusServiceUnavailable)
				return
			}
			inner.ServeHTTP(rw, r)
		})
	}
	urls := startWrappedWorkers(t, 3, dieOnArmedRun)
	coord := &cluster.Coordinator{Workers: urls}
	coord.SetHeartbeat(50*time.Millisecond, 0)

	warm, err := coord.Mine(context.Background(), db, paperex.PatternExpression, paperex.Sigma, plan.Plan{Algorithm: plan.AlgoDSeq})
	if err != nil {
		t.Fatalf("warm-up Mine: %v", err)
	}
	if warm.StoreMisses != 3 || warm.Retries != 0 {
		t.Fatalf("warm-up should push the bundle to all 3 workers without retries: %+v", warm.Stats)
	}

	armed.Store(true)
	res, err := coord.Mine(context.Background(), db, paperex.PatternExpression, paperex.Sigma, plan.Plan{Algorithm: plan.AlgoDSeq})
	if err != nil {
		t.Fatalf("Mine with a dying worker: %v", err)
	}
	if !reflect.DeepEqual(res.Patterns, want) {
		t.Errorf("patterns after the retry differ from the single-process run (%d vs %d)", len(res.Patterns), len(want))
	}
	if res.Retries < 1 || res.StorePutBytes != 0 || res.StoreMisses != 0 {
		t.Errorf("a retried job on warm workers should retry and ship no bundle bytes: %+v", res.Stats)
	}
	if !reflect.DeepEqual(res.DeadWorkers, []string{urls[2]}) {
		t.Errorf("dead workers %v, want only %s", res.DeadWorkers, urls[2])
	}
}

// hangWorker answers its first health probes, then accepts a job spec and
// hangs forever without opening its exchange (a stalled process rather than
// a dead one: TCP stays up). Only the heartbeat/liveness loop can catch it.
type hangWorker struct {
	node    *transport.Node
	started atomic.Bool
}

func (h *hangWorker) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		if h.started.Load() {
			// Stalled: probes hang until the prober's timeout expires.
			<-r.Context().Done()
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		_, _ = rw.Write([]byte(`{"status":"ok","data_addr":"` + h.node.Addr() + `"}`))
	})
	mux.HandleFunc("GET /datasets/{id}", func(rw http.ResponseWriter, r *http.Request) {
		http.Error(rw, `{"error":"cluster: unknown dataset","failed_peer":-1}`, http.StatusNotFound)
	})
	mux.HandleFunc("PUT /datasets/{id}", func(rw http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		rw.WriteHeader(http.StatusOK)
		_, _ = rw.Write([]byte(`{}`))
	})
	mux.HandleFunc("POST /run", func(rw http.ResponseWriter, r *http.Request) {
		h.started.Store(true)
		// Consume the body so the server's background read notices the
		// coordinator abandoning the request, then hang like a stalled miner.
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done() // hang until the coordinator gives up on us
	})
	return mux
}

// TestHeartbeatDetectsStalledWorker: a worker that accepts its spec and then
// stalls (no crash, TCP alive) is only observable through missed heartbeats.
// The scheduler must declare it dead, abort the attempt and retry on the
// survivors — still byte-identical to the single-process run.
func TestHeartbeatDetectsStalledWorker(t *testing.T) {
	db := paperDatabase(t)
	f := fst.MustCompile(paperex.PatternExpression, db.Dict)
	want := inProcess(t, plan.AlgoDSeq, f, db, paperex.Sigma)

	urls := startWorkers(t, 2)
	node, err := transport.NewNode("127.0.0.1:0", transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	hang := &hangWorker{node: node}
	srv := httptest.NewServer(hang.handler())
	t.Cleanup(srv.Close)
	urls = append(urls, srv.URL)

	coord := &cluster.Coordinator{Workers: urls}
	coord.SetHeartbeat(50*time.Millisecond, 2)
	start := time.Now()
	res, err := coord.Mine(context.Background(), db, paperex.PatternExpression, paperex.Sigma, plan.Plan{Algorithm: plan.AlgoDSeq})
	if err != nil {
		t.Fatalf("Mine with a stalled worker: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("heartbeat path took %v; the stall should be caught in well under the transport timeouts", elapsed)
	}
	if got, wantM := miner.PatternsToMap(db.Dict, res.Patterns), miner.PatternsToMap(db.Dict, want); !reflect.DeepEqual(got, wantM) {
		t.Errorf("patterns after stalled worker = %v, want %v", got, wantM)
	}
	if res.Retries == 0 {
		t.Errorf("expected a retry after the heartbeat death, got %+v attempts/%d retries", res.Attempts, res.Retries)
	}
	found := false
	for _, dead := range res.DeadWorkers {
		if dead == srv.URL {
			found = true
		}
	}
	if !found {
		t.Errorf("dead workers %v do not include the stalled worker", res.DeadWorkers)
	}
}
