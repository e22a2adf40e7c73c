package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seqmine/internal/transport"
)

// oracleResult is what the sequential reference below computes for a job.
type oracleResult struct {
	out                    []string // sorted
	mapRecords, partitions int64
	// Post-combine volume of a run with unbounded send buffers: every map
	// worker of every peer combines each of its keys exactly once.
	shuffleRecords, shuffleBytes int64
}

// oracle is a sequential map → group → reduce of the job over the peers'
// input splits. It shares no code with the engine (no send path, exchange or
// accumulator), so the engine's one map/shuffle path is not its own
// reference. Reduce sees the raw, uncombined values.
func oracle(job Job[string, string, int, string], splits [][]string, workers int) oracleResult {
	var r oracleResult
	all := make(map[string][]int)
	for _, split := range splits {
		for w := 0; w < workers; w++ {
			groups := make(map[string][]int)
			for i := w; i < len(split); i += workers {
				job.Map(split[i], func(k string, v int) {
					groups[k] = append(groups[k], v)
					all[k] = append(all[k], v)
					r.mapRecords++
				})
			}
			for k, vs := range groups {
				if job.Combine != nil {
					vs = job.Combine(k, vs)
				}
				r.shuffleRecords += int64(len(vs))
				for _, v := range vs {
					r.shuffleBytes += int64(job.SizeOf(k, v))
				}
			}
		}
	}
	r.partitions = int64(len(all))
	for k, vs := range all {
		job.Reduce(k, vs, func(o string) { r.out = append(r.out, o) })
	}
	sort.Strings(r.out)
	return r
}

// wantOutput is the oracle's sorted job output for a single-peer run.
func wantOutput(job Job[string, string, int, string], inputs []string) []string {
	return oracle(job, [][]string{inputs}, 1).out
}

// splitInputs deals the inputs round-robin to n peers.
func splitInputs(inputs []string, n int) [][]string {
	splits := make([][]string, n)
	for i, in := range inputs {
		splits[i%n] = append(splits[i%n], in)
	}
	return splits
}

// runGroup executes the job on every peer of the group (peer p maps
// splits[p]; a group of one nil exchange is a run alone in the process) and
// returns the sorted union of the outputs with the per-peer metrics and
// errors.
func runGroup(job Job[string, string, int, string], group []ByteExchange, splits [][]string, cfg func(p int) Config) ([]string, []Metrics, []error) {
	results := make([][]string, len(group))
	metrics := make([]Metrics, len(group))
	errs := make([]error, len(group))
	var wg sync.WaitGroup
	for p := range group {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			results[p], metrics[p], errs[p] = Run(splits[p], cfg(p), job, group[p])
		}(p)
	}
	wg.Wait()
	var out []string
	for _, r := range results {
		out = append(out, r...)
	}
	sort.Strings(out)
	return out, metrics, errs
}

// TestSendPathMatchesOracle is the core equivalence property: whatever the
// worker count, the send-buffer capacity — unbounded included — and the spill
// threshold (off: the reduce loop walks the in-memory groups; a few hundred
// bytes: it is fed by the k-way merge), the engine must produce the sequential
// oracle's output and exact record counts.
func TestSendPathMatchesOracle(t *testing.T) {
	inputs := spillInputs(200)
	job := spillWordCountJob()
	for _, workers := range []int{1, 2, 4} {
		want := oracle(job, [][]string{inputs}, workers)
		for _, buffer := range []int64{-1, 0, 3, 64, 512, 1 << 20} {
			for _, threshold := range []int64{0, 300} {
				name := fmt.Sprintf("workers=%d buffer=%d threshold=%d", workers, buffer, threshold)
				cfg := Config{MapWorkers: workers, ReduceWorkers: workers,
					Shuffle: ShuffleConfig{SendBufferBytes: buffer, SpillThreshold: threshold, SpillTmpDir: t.TempDir()}}
				got, metrics := runAlone(t, inputs, cfg, job)
				sort.Strings(got)
				if !reflect.DeepEqual(got, want.out) {
					t.Errorf("%s: output differs from the oracle", name)
				}
				if metrics.MapOutputRecords != want.mapRecords || metrics.Partitions != want.partitions {
					t.Errorf("%s: MapOutputRecords/Partitions = %d/%d, want %d/%d", name,
						metrics.MapOutputRecords, metrics.Partitions, want.mapRecords, want.partitions)
				}
				if metrics.ShuffleBytes <= 0 || metrics.ShuffleTime <= 0 {
					t.Errorf("%s: shuffle metrics not populated: %+v", name, metrics)
				}
				if spilled := metrics.SpillCount > 0; spilled != (threshold > 0) {
					t.Errorf("%s: SpillCount = %d, so the wrong feeder ran", name, metrics.SpillCount)
				}
				if buffer <= 0 {
					if metrics.StreamedBatches != 0 {
						t.Errorf("%s: unbounded run reported streamed batches: %+v", name, metrics)
					}
					if metrics.ShuffleRecords != want.shuffleRecords || metrics.ShuffleBytes != want.shuffleBytes {
						t.Errorf("%s: ShuffleRecords/Bytes = %d/%d, want %d/%d", name,
							metrics.ShuffleRecords, metrics.ShuffleBytes, want.shuffleRecords, want.shuffleBytes)
					}
					continue
				}
				if metrics.StreamedBatches == 0 {
					t.Errorf("%s: expected streamed batches", name)
				}
				// Per-flush combining merges duplicates within a buffer only, so
				// the communicated records lie between the unbounded run's and
				// the raw map output.
				if metrics.ShuffleRecords > want.mapRecords || metrics.ShuffleRecords < want.shuffleRecords {
					t.Errorf("%s: implausible ShuffleRecords %d (map output %d, fully combined %d)",
						name, metrics.ShuffleRecords, want.mapRecords, want.shuffleRecords)
				}
			}
		}
	}
}

// TestReduceCancel cancels the run from inside a reduce call, once with the
// in-memory walk feeding the reduce loop and once with the k-way merge: the run
// must return the context's error with the reduce workers joined and the spill
// segments removed.
func TestReduceCancel(t *testing.T) {
	inputs := spillInputs(200)
	for _, threshold := range []int64{0, 300} {
		t.Run(fmt.Sprintf("threshold=%d", threshold), func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			job := spillWordCountJob()
			var reduced atomic.Int64
			job.Reduce = func(string, []int, func(string)) {
				if reduced.Add(1) == 10 {
					cancel()
				}
			}
			dir := t.TempDir()
			cfg := Config{MapWorkers: 2, ReduceWorkers: 2, Context: ctx,
				Shuffle: ShuffleConfig{SpillThreshold: threshold, SpillTmpDir: dir}}
			out, metrics, err := Run(inputs, cfg, job, nil)
			if !errors.Is(err, context.Canceled) || out != nil {
				t.Errorf("cancelled reduce returned %d outputs, err %v; want none, context.Canceled", len(out), err)
			}
			if spilled := metrics.SpillCount > 0; spilled != (threshold > 0) {
				t.Errorf("SpillCount = %d, so the wrong feeder ran", metrics.SpillCount)
			}
			if n := reduced.Load(); n >= oracle(spillWordCountJob(), [][]string{inputs}, 1).partitions {
				t.Errorf("all %d partitions were reduced after the cancellation", n)
			}
			if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
				t.Errorf("%d entries left under SpillTmpDir (err %v)", len(entries), err)
			}
			waitForGoroutines(t, before)
		})
	}
}

// TestMetricsContract pins what the benchmark and the cluster worker read off
// Metrics, alone in the process (loopback-1) and on every kind of exchange
// (loopback-3 is the in-memory fabric): an unbounded run reports no streaming
// or spilling activity and a shuffle that starts when the map ends, a bounded
// run reports streamed batches, both agree with the oracle on the
// capacity-independent counts, the unbounded run's records are the oracle's
// post-combine records exactly, and its bytes are the oracle's post-combine
// volume alone and each fabric's wire count on an exchange.
func TestMetricsContract(t *testing.T) {
	inputs := spillInputs(200)
	job := spillWordCountJob()
	const workers = 2
	for _, topo := range []struct {
		name  string
		peers int
		tcp   bool
	}{{"loopback-1", 1, false}, {"loopback-3", 3, false}, {"tcp-2", 2, true}} {
		t.Run(topo.name, func(t *testing.T) {
			splits := splitInputs(inputs, topo.peers)
			want := oracle(job, splits, workers)
			run := func(name string, sc ShuffleConfig) Metrics {
				group := []ByteExchange{nil}
				switch {
				case topo.tcp:
					group = tcpGroup(t, name, topo.peers)
				case topo.peers > 1:
					group = newMemFabric(topo.peers)
				}
				remote := group[0] != nil
				out, metrics, errs := runGroup(job, group, splits, func(int) Config {
					return Config{MapWorkers: workers, ReduceWorkers: workers, Shuffle: sc}
				})
				for p, err := range errs {
					if err != nil {
						t.Fatalf("%s: peer %d: %v", name, p, err)
					}
				}
				if !reflect.DeepEqual(out, want.out) {
					t.Errorf("%s: output differs from the oracle", name)
				}
				var total Metrics
				for p, m := range metrics {
					if m.RemoteShuffle != remote {
						t.Errorf("%s: RemoteShuffle = %v, want %v", name, m.RemoteShuffle, remote)
					}
					if remote && m.ShuffleBytes != group[p].WireBytesOut() {
						t.Errorf("%s: peer %d ShuffleBytes = %d, want the exchange's wire count %d",
							name, p, m.ShuffleBytes, group[p].WireBytesOut())
					}
					if !sc.Streaming() && (m.StreamedBatches != 0 || m.SpillCount != 0 || m.SpilledBytes != 0 ||
						len(m.StreamPeers) != 0 || m.ShuffleTime > m.ReduceTime) {
						t.Errorf("%s: unbounded run reports streaming activity or an early shuffle: %+v", name, m)
					}
					total.MapOutputRecords += m.MapOutputRecords
					total.Partitions += m.Partitions
					total.ShuffleRecords += m.ShuffleRecords
					total.ShuffleBytes += m.ShuffleBytes
					total.StreamedBatches += m.StreamedBatches
				}
				if total.MapOutputRecords != want.mapRecords || total.Partitions != want.partitions {
					t.Errorf("%s: MapOutputRecords/Partitions = %d/%d, want %d/%d", name,
						total.MapOutputRecords, total.Partitions, want.mapRecords, want.partitions)
				}
				return total
			}
			unbounded := run("unbounded", ShuffleConfig{})
			bounded := run("bounded", ShuffleConfig{SendBufferBytes: 256, SpillTmpDir: t.TempDir()})
			if bounded.StreamedBatches == 0 {
				t.Error("bounded run reported no streamed batches")
			}
			if unbounded.ShuffleRecords != want.shuffleRecords {
				t.Errorf("unbounded ShuffleRecords = %d, want the oracle's post-combine %d",
					unbounded.ShuffleRecords, want.shuffleRecords)
			}
			if topo.peers == 1 && unbounded.ShuffleBytes != want.shuffleBytes {
				t.Errorf("unbounded ShuffleBytes = %d, want the oracle's post-combine %d",
					unbounded.ShuffleBytes, want.shuffleBytes)
			}
			if topo.peers > 1 && unbounded.ShuffleBytes <= 0 {
				t.Error("wire run measured no transport bytes")
			}
		})
	}
}

// tcpGroup connects n transport nodes on loopback TCP and returns one
// exchange per peer; everything is closed when the test ends.
func tcpGroup(t *testing.T, jobID string, n int) []ByteExchange {
	t.Helper()
	nodes := make([]*transport.Node, n)
	addrs := make([]string, n)
	for i := range nodes {
		node, err := transport.NewNode("127.0.0.1:0", transport.Config{})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		t.Cleanup(func() { node.Close() })
		nodes[i], addrs[i] = node, node.Addr()
	}
	group := make([]ByteExchange, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for p := range nodes {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			bx, err := nodes[p].OpenExchange(jobID, p, addrs)
			if err != nil {
				errs[p] = err
				return
			}
			group[p] = bx
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: OpenExchange: %v", p, err)
		}
	}
	return group
}

// failingExchange rejects every Send, like a peer whose connection broke.
type failingExchange struct{ ByteExchange }

var errInjectedSend = errors.New("injected send failure")

func (failingExchange) Send(int, []byte) error { return errInjectedSend }

// TestSendPathLeavesNoGoroutines: the send path starts one sender goroutine
// per remote peer whatever the buffer capacity. They, the receiver and the
// map workers must all have exited when Run returns — on success,
// after a send error, after a cancellation, and after a cancellation that
// lands while a stalled peer has hand-offs blocked behind a full sender queue
// (mid-map when bounded, after the map when not).
func TestSendPathLeavesNoGoroutines(t *testing.T) {
	inputs := spillInputs(120)
	job := spillWordCountJob()
	for _, outcome := range []string{"ok", "send-error", "cancelled", "stalled-cancelled"} {
		for _, buffer := range []int64{0, 128} {
			t.Run(fmt.Sprintf("%s/buffer=%d", outcome, buffer), func(t *testing.T) {
				before := runtime.NumGoroutine()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				group := newMemFabric(2)
				j := job
				workers := 2
				switch outcome {
				case "send-error":
					group[0] = failingExchange{group[0]}
				case "cancelled":
					var mapped atomic.Int64
					j.Map = func(in string, emit func(string, int)) {
						if mapped.Add(1) == 30 {
							cancel()
						}
						job.Map(in, emit)
					}
				case "stalled-cancelled":
					// Eight workers: at least six runs head for peer 1 even
					// unbounded — one wedged in Send, four queued, the rest
					// blocked in their hand-off when the cancellation lands.
					workers = 8
					gate, entered := make(chan struct{}), make(chan struct{}, 1)
					group[0] = &gatedExchange{ByteExchange: group[0], gate: gate, entered: entered}
					go func() {
						<-entered
						time.Sleep(20 * time.Millisecond) // let the queue fill
						cancel()
						time.Sleep(20 * time.Millisecond)
						close(gate) // the caller closing the exchange of a dead attempt
					}()
				}
				_, _, errs := runGroup(j, group, splitInputs(inputs, 2), func(p int) Config {
					cfg := Config{MapWorkers: workers, ReduceWorkers: 2,
						Shuffle: ShuffleConfig{SendBufferBytes: buffer, SpillTmpDir: t.TempDir()}}
					if p == 0 {
						cfg.Context = ctx
					}
					return cfg
				})
				want := context.Canceled
				switch outcome {
				case "ok":
					want = nil
				case "send-error":
					want = errInjectedSend
				}
				if !errors.Is(errs[0], want) {
					t.Errorf("peer 0 returned %v, want %v", errs[0], want)
				}
				if errs[1] != nil {
					t.Errorf("peer 1 failed: %v", errs[1])
				}
				waitForGoroutines(t, before)
			})
		}
	}
}

// waitForGoroutines fails the test unless the goroutine count falls back to
// the level recorded before the code under test ran.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBlockedHandOffObservesCancel drives the send path directly so the
// moment a blocked hand-off gives up is observable: with peer 1 wedged in its
// first Send and its four-slot queue full, the sixth hand-off — mid-map for a
// bounded buffer, after the map for an unbounded one — must record the
// context's error as soon as the run is cancelled, while the peer is still
// stalled; finish then reports it and joins the senders once Send returns.
func TestBlockedHandOffObservesCancel(t *testing.T) {
	job := spillWordCountJob()
	for _, buffer := range []int64{0, 6 * 4} {
		t.Run(fmt.Sprintf("buffer=%d", buffer), func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			gate := make(chan struct{})
			ex := &gatedExchange{ByteExchange: newMemFabric(2)[0], gate: gate}
			cfg := Config{MapWorkers: 6, Context: ctx, Shuffle: ShuffleConfig{SendBufferBytes: buffer}}
			sp := newSendPath(cfg, job, newShuffleAccumulator(ctx, cfg.Shuffle, nil, job.Codec, job.SizeOf), ex)
			done := make(chan error, 1)
			go func() {
				for w := range sp.bufs { // bounded: the second record flushes the first
					sp.add(&sp.bufs[w][1], 1, "word000", 1)
					sp.add(&sp.bufs[w][1], 1, "word001", 1)
					sp.seal(&sp.bufs[w][1])
				}
				done <- sp.finish()
			}()
			queue := sp.dests[1].queue
			for deadline := time.Now().Add(10 * time.Second); len(queue) < cap(queue); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the stalled peer's sender queue never filled")
				}
			}
			cancel()
			for deadline := time.Now().Add(10 * time.Second); sp.err.Load() == nil; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("blocked hand-off did not give up after the cancellation")
				}
			}
			close(gate)
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Errorf("finish returned %v, want context.Canceled", err)
			}
			waitForGoroutines(t, before)
		})
	}
}
