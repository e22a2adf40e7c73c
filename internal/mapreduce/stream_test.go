package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// streamingConfig is the fixture streaming configuration of these tests: a
// tiny send buffer so even the small word-count inputs flush many times.
func streamingConfig(t *testing.T, sendBuffer int64) Config {
	t.Helper()
	return Config{Workers: 3,
		Shuffle: ShuffleConfig{SendBufferBytes: sendBuffer, SpillTmpDir: t.TempDir()}}
}

// probeMaxOccupancy installs testSendBufferProbe for the test and returns the
// largest per-destination occupancy it has seen.
func probeMaxOccupancy(t *testing.T) *atomic.Int64 {
	max := new(atomic.Int64)
	testSendBufferProbe = func(_ int, occupancy int64) {
		for {
			cur := max.Load()
			if occupancy <= cur || max.CompareAndSwap(cur, occupancy) {
				return
			}
		}
	}
	t.Cleanup(func() { testSendBufferProbe = nil })
	return max
}

// TestStreamingSendBufferBound asserts the acceptance criterion directly:
// per-peer send-buffer occupancy never exceeds SendBufferBytes.
func TestStreamingSendBufferBound(t *testing.T) {
	const bufCap = 256
	max := probeMaxOccupancy(t)

	inputs := spillInputs(150)
	job := spillWordCountJob()
	want := wantOutput(job, inputs)

	got, metrics := runAlone(t, inputs, streamingConfig(t, bufCap), job)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Error("bounded-buffer output differs from the oracle")
	}
	if metrics.StreamedBatches == 0 {
		t.Fatal("expected streamed batches")
	}
	// Every record of the fixture is far smaller than the cap, so occupancy
	// must stay within it exactly (the documented slack of one record only
	// applies to records larger than the whole buffer).
	if got := max.Load(); got > bufCap {
		t.Errorf("send-buffer occupancy reached %d bytes, cap is %d", got, bufCap)
	}
	if max.Load() == 0 {
		t.Error("probe observed no occupancy")
	}
}

// TestStreamingMultiPeerLoopback checks equivalence across a 3-peer in-memory
// fabric with streaming enabled on every peer.
func TestStreamingMultiPeerLoopback(t *testing.T) {
	inputs := spillInputs(200)
	job := spillWordCountJob()
	want := wantOutput(job, inputs)

	out, metrics, errs := runGroup(job, newMemFabric(3), splitInputs(inputs, 3), func(int) Config {
		return Config{Workers: 2,
			Shuffle: ShuffleConfig{SendBufferBytes: 256, SpillTmpDir: t.TempDir()}}
	})
	var streamed int64
	for p, m := range metrics {
		if errs[p] != nil {
			t.Fatalf("peer %d: %v", p, errs[p])
		}
		streamed += m.StreamedBatches
	}
	if !reflect.DeepEqual(out, want) {
		t.Error("multi-peer bounded-buffer output differs from the oracle")
	}
	if streamed == 0 {
		t.Error("expected streamed batches across the group")
	}
}

// TestStreamingWithSpill combines both shuffle bounds: tiny send buffers and
// a tiny receive-side spill threshold. The output must still be
// byte-identical, and the run must spill.
func TestStreamingWithSpill(t *testing.T) {
	inputs := spillInputs(300)
	job := spillWordCountJob()
	want := wantOutput(job, inputs)

	cfg := Config{Workers: 3, Shuffle: ShuffleConfig{SendBufferBytes: 128, SpillThreshold: 256, SpillTmpDir: t.TempDir()}}
	got, metrics := runAlone(t, inputs, cfg, job)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("bounded-shuffle output differs from the oracle")
	}
	if metrics.SpillCount == 0 || metrics.SpilledBytes == 0 {
		t.Fatalf("expected spilling, got %+v", metrics)
	}
}

// gatedExchange blocks every Send until the gate channel is closed,
// simulating a peer that has stalled completely: the per-peer sender
// goroutines wedge on their first frame, their short queues fill, and the map
// workers' hand-offs block behind them.
type gatedExchange struct {
	ByteExchange
	gate    <-chan struct{}
	entered chan<- struct{} // optional: signalled (never blocking) when a Send starts waiting
}

func (g *gatedExchange) Send(dst int, frame []byte) error {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	return g.ByteExchange.Send(dst, frame)
}

// TestStreamingBackpressureBlocks pins the bounded-memory claim: against a
// sender that cannot keep up the map workers wait — nothing goes to disk, no
// buffer grows past its bound — and the output is the oracle's once the peer
// recovers.
func TestStreamingBackpressureBlocks(t *testing.T) {
	inputs := spillInputs(120)
	job := spillWordCountJob()
	want := wantOutput(job, inputs)
	const bufCap, workers = 64, 2
	max := probeMaxOccupancy(t)

	gate := make(chan struct{})
	group := newMemFabric(2)
	dirs := make([]string, len(group))
	for p := range group {
		group[p] = &gatedExchange{ByteExchange: group[p], gate: gate}
		dirs[p] = t.TempDir()
	}
	// Leave the peers stalled far longer than the (fast) map phases need to
	// fill every queue, then let the senders drain.
	time.AfterFunc(400*time.Millisecond, func() { close(gate) })
	out, metrics, errs := runGroup(job, group, splitInputs(inputs, 2), func(p int) Config {
		return Config{Workers: workers,
			Shuffle: ShuffleConfig{SendBufferBytes: bufCap, SpillTmpDir: dirs[p]}}
	})
	for p := range group {
		if errs[p] != nil {
			t.Fatalf("peer %d: %v", p, errs[p])
		}
		if metrics[p].SpilledBytes != 0 || metrics[p].SpillCount != 0 {
			t.Errorf("peer %d wrote to disk under backpressure: %+v", p, metrics[p])
		}
		if entries, err := os.ReadDir(dirs[p]); err != nil || len(entries) != 0 {
			t.Errorf("peer %d left %d entries under SpillTmpDir (err %v)", p, len(entries), err)
		}
	}
	if !reflect.DeepEqual(out, want) {
		t.Error("backpressured bounded-buffer output differs from the oracle")
	}
	record := int64(job.SizeOf("word000", 1))
	if got := max.Load(); got == 0 || got > bufCap+workers*record {
		t.Errorf("send-buffer occupancy reached %d bytes, want within (0, %d + one %d-byte record per map worker]",
			got, bufCap, record)
	}
}

// TestStreamingRequiresCodec mirrors the spill precondition.
func TestStreamingRequiresCodec(t *testing.T) {
	job := wordCountJob() // no codec
	cfg := Config{Shuffle: ShuffleConfig{SendBufferBytes: 64}}
	_, _, err := Run(wordCountInputs, cfg, job, nil)
	if err == nil {
		t.Fatal("expected an error for streaming without a codec")
	}
}

// TestStreamingEmptyInput: no emits, no flushes, no batches — and no hang.
func TestStreamingEmptyInput(t *testing.T) {
	out, metrics := runAlone(t, nil, streamingConfig(t, 128), spillWordCountJob())
	if len(out) != 0 || metrics.StreamedBatches != 0 || metrics.ShuffleRecords != 0 {
		t.Errorf("empty streaming input should produce nothing: %v %+v", out, metrics)
	}
}

// TestStreamingPreservesEmptyValueKeys: the per-flush combiner may prune
// every value of a key; the key must still reach Reduce (same contract as
// the spill path).
func TestStreamingPreservesEmptyValueKeys(t *testing.T) {
	job := spillWordCountJob()
	job.Combine = func(k string, vs []int) []int {
		if k == "word000" {
			return nil
		}
		return vs
	}
	job.Reduce = func(k string, vs []int, emit func(string)) {
		emit(k)
	}
	inputs := spillInputs(150)
	want := wantOutput(job, inputs)

	got, metrics := runAlone(t, inputs, streamingConfig(t, 128), job)
	sort.Strings(got)
	if metrics.StreamedBatches == 0 {
		t.Fatal("expected streamed batches")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("streaming run dropped or altered keys: got %d keys, want %d", len(got), len(want))
	}
	found := false
	for _, s := range got {
		if s == "word000" {
			found = true
		}
	}
	if !found {
		t.Error("the empty-value key must still reach Reduce in the streaming run")
	}
}

// TestRunExchangeCancel: a canceled Config.Context must abort the run with
// the context's error without wedging the other peers of the exchange — the
// canceled peer still delivers its end frame, so its neighbor completes its
// barrier normally. What the canceled peer still buffers is dropped: with
// unbounded buffers it ships nothing at all, with bounded ones only what was
// handed off before the cancellation.
func TestRunExchangeCancel(t *testing.T) {
	inputs := spillInputs(200)
	job := spillWordCountJob()
	total := oracle(job, [][]string{inputs}, 1).mapRecords

	for _, buffer := range []int64{0, 128} {
		t.Run(fmt.Sprintf("buffer=%d", buffer), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// Every record that left before cancel returned was emitted (and
			// counted) before emitsAtCancel is read.
			var mapped, emits, emitsAtCancel atomic.Int64
			canceling := job
			canceling.Map = func(in string, emit func(string, int)) {
				if mapped.Add(1) == 60 {
					cancel()
					emitsAtCancel.Store(emits.Load())
				}
				job.Map(in, func(k string, v int) {
					emits.Add(1)
					emit(k, v)
				})
			}
			var metrics []Metrics
			var errs []error
			done := make(chan struct{})
			go func() {
				defer close(done)
				// Peer 0 maps everything and is canceled; peer 1 only reduces.
				_, metrics, errs = runGroup(canceling, newMemFabric(2), [][]string{inputs, nil},
					func(p int) Config {
						cfg := Config{Workers: 2,
							Shuffle: ShuffleConfig{SendBufferBytes: buffer, SpillTmpDir: t.TempDir()}}
						if p == 0 {
							cfg.Context = ctx
						}
						return cfg
					})
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("canceled exchange did not finish within 30s (wedged barrier?)")
			}
			if !errors.Is(errs[0], context.Canceled) {
				t.Errorf("canceled peer returned %v, want context.Canceled", errs[0])
			}
			if errs[1] != nil {
				t.Errorf("neighbor of the canceled peer failed: %v", errs[1])
			}
			shipped, bound := metrics[0].ShuffleRecords, emitsAtCancel.Load()
			if bound >= total {
				t.Fatalf("cancellation landed after the map phase (%d of %d records emitted)", bound, total)
			}
			if buffer <= 0 {
				if shipped != 0 || metrics[1].Partitions != 0 {
					t.Errorf("unbounded canceled peer shipped %d records, neighbor reduced %d partitions; want 0, 0",
						shipped, metrics[1].Partitions)
				}
			} else if shipped == 0 || shipped > bound {
				t.Errorf("bounded canceled peer shipped %d records, want within (0, %d] handed off before the cancellation",
					shipped, bound)
			}
		})
	}
}

// TestStreamEmitShardedByWorker: with more map workers than the fixture
// needs, each owning a small share of the buffer, per-destination occupancy
// (summed over the workers' buffers) still respects the configured cap and
// the output equals the oracle's.
func TestStreamEmitShardedByWorker(t *testing.T) {
	inputs := spillInputs(200)
	job := spillWordCountJob()
	want := wantOutput(job, inputs)

	const bufCap = 1 << 10
	max := probeMaxOccupancy(t)

	cfg := Config{Workers: 8,
		Shuffle: ShuffleConfig{SendBufferBytes: bufCap, SpillTmpDir: t.TempDir()}}
	got, metrics := runAlone(t, inputs, cfg, job)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Error("sharded bounded-buffer output differs from the oracle")
	}
	if metrics.StreamedBatches == 0 {
		t.Fatal("expected streamed batches")
	}
	if got := max.Load(); got > bufCap {
		t.Errorf("send-buffer occupancy reached %d bytes across shards, cap is %d", got, bufCap)
	}
}
