package mapreduce_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"seqmine/internal/mapreduce"
	"seqmine/internal/transport"
)

// TestRunExchangeManyKeysOverTransport shuffles thousands of tiny batches
// across three real TCP peers. Regression test for a deadlock in an earlier
// self-delivery path: with more than an inbox's worth of self-owned keys and
// remote frames small enough to sit in the connections' write buffers, a
// bounded self queue wedged sender and receiver against each other.
func TestRunExchangeManyKeysOverTransport(t *testing.T) {
	const (
		npeers = 3
		nkeys  = 3000
	)
	nodes := make([]*transport.Node, npeers)
	addrs := make([]string, npeers)
	for i := range nodes {
		node, err := transport.NewNode("127.0.0.1:0", transport.Config{})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		defer node.Close()
		nodes[i] = node
		addrs[i] = node.Addr()
	}

	codec := mapreduce.FrameCodec[int, int]{
		AppendKey: func(buf []byte, k int) []byte { return mapreduce.AppendUvarint(buf, uint64(k)) },
		ReadKey: func(data []byte, pos int) (int, int, error) {
			v, pos, err := mapreduce.ReadUvarint(data, pos)
			return int(v), pos, err
		},
		AppendValue: func(buf []byte, v int) []byte { return mapreduce.AppendUvarint(buf, uint64(v)) },
		ReadValue: func(data []byte, pos int) (int, int, error) {
			v, pos, err := mapreduce.ReadUvarint(data, pos)
			return int(v), pos, err
		},
	}
	// Every peer emits every key once, so each peer owns ~nkeys/npeers keys
	// (one third of its own batches are self-destined) and every reduce sees
	// exactly npeers values.
	job := mapreduce.Job[int, int, int, string]{
		Map: func(base int, emit func(int, int)) {
			for k := base; k < nkeys; k += npeers * 10 {
				emit(k, 1)
			}
		},
		Reduce: func(k int, vs []int, emit func(string)) {
			sum := 0
			for _, v := range vs {
				sum += v
			}
			emit(fmt.Sprintf("%d=%d", k, sum))
		},
		Hash:  func(k int) uint64 { return mapreduce.HashUint64(uint64(k)) },
		Codec: &codec,
	}

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		out   []string
		fails []error
	)
	for p := 0; p < npeers; p++ {
		// Every peer gets all residues, so every peer emits every key once.
		var inputs []int
		for i := 0; i < npeers*10; i++ {
			inputs = append(inputs, i)
		}
		wg.Add(1)
		go func(p int, inputs []int) {
			defer wg.Done()
			bx, err := nodes[p].OpenExchange("many-keys", p, addrs)
			if err != nil {
				mu.Lock()
				fails = append(fails, err)
				mu.Unlock()
				return
			}
			defer bx.Close()
			local, _, err := mapreduce.Run(inputs, mapreduce.Config{MapWorkers: 2, ReduceWorkers: 2}, job, bx)
			mu.Lock()
			out = append(out, local...)
			if err != nil {
				fails = append(fails, err)
			}
			mu.Unlock()
		}(p, inputs)
	}
	wg.Wait()
	for _, err := range fails {
		t.Fatalf("Run: %v", err)
	}
	if len(out) != nkeys {
		t.Fatalf("got %d reduced keys, want %d", len(out), nkeys)
	}
	for _, s := range out {
		var k, sum int
		if _, err := fmt.Sscanf(s, "%d=%d", &k, &sum); err != nil || sum != npeers {
			t.Fatalf("unexpected reduce output %q (want every key summed to %d)", s, npeers)
		}
	}
}

// TestRunExchangeSkewedOwnershipSpills pins every key on peer 0 and gives the
// transport a one-frame inbox, the pathological shape that used to require an
// unbounded self-delivery queue (the PR 2 workaround): peer 0 receives its
// own data plus everything the other peers send, with no room to buffer
// inbound frames. With the spill buffer bounding self-delivery instead, the
// job must complete — without deadlocking and with peer 0's memory bounded by
// the spill threshold — and produce the same groups as an in-memory run.
func TestRunExchangeSkewedOwnershipSpills(t *testing.T) {
	const (
		npeers = 3
		nkeys  = 800
	)
	nodes := make([]*transport.Node, npeers)
	addrs := make([]string, npeers)
	for i := range nodes {
		node, err := transport.NewNode("127.0.0.1:0", transport.Config{InboxFrames: 1})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		defer node.Close()
		nodes[i] = node
		addrs[i] = node.Addr()
	}

	codec := mapreduce.FrameCodec[int, int]{
		AppendKey: func(buf []byte, k int) []byte { return mapreduce.AppendUvarint(buf, uint64(k)) },
		ReadKey: func(data []byte, pos int) (int, int, error) {
			v, pos, err := mapreduce.ReadUvarint(data, pos)
			return int(v), pos, err
		},
		AppendValue: func(buf []byte, v int) []byte { return mapreduce.AppendUvarint(buf, uint64(v)) },
		ReadValue: func(data []byte, pos int) (int, int, error) {
			v, pos, err := mapreduce.ReadUvarint(data, pos)
			return int(v), pos, err
		},
	}
	job := mapreduce.Job[int, int, int, string]{
		Map: func(base int, emit func(int, int)) {
			for k := base; k < nkeys; k += npeers * 10 {
				emit(k, 1)
			}
		},
		Reduce: func(k int, vs []int, emit func(string)) {
			sum := 0
			for _, v := range vs {
				sum += v
			}
			emit(fmt.Sprintf("%d=%d", k, sum))
		},
		Hash:  func(int) uint64 { return 0 }, // every key is owned by peer 0
		Codec: &codec,
	}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		out     []string
		spilled int64
		fails   []error
	)
	for p := 0; p < npeers; p++ {
		var inputs []int
		for i := 0; i < npeers*10; i++ {
			inputs = append(inputs, i)
		}
		wg.Add(1)
		go func(p int, inputs []int) {
			defer wg.Done()
			bx, err := nodes[p].OpenExchange("skewed-spill", p, addrs)
			if err != nil {
				mu.Lock()
				fails = append(fails, err)
				mu.Unlock()
				return
			}
			defer bx.Close()
			cfg := mapreduce.Config{MapWorkers: 2, ReduceWorkers: 2,
				Shuffle: mapreduce.ShuffleConfig{SpillThreshold: 256, SpillTmpDir: t.TempDir()}}
			local, metrics, err := mapreduce.Run(inputs, cfg, job, bx)
			mu.Lock()
			out = append(out, local...)
			spilled += metrics.SpilledBytes
			if err != nil {
				fails = append(fails, err)
			}
			mu.Unlock()
		}(p, inputs)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("skewed shuffle did not complete within 60s (self-delivery deadlock?)")
	}
	for _, err := range fails {
		t.Fatalf("Run: %v", err)
	}
	if len(out) != nkeys {
		t.Fatalf("got %d reduced keys, want %d", len(out), nkeys)
	}
	for _, s := range out {
		var k, sum int
		if _, err := fmt.Sscanf(s, "%d=%d", &k, &sum); err != nil || sum != npeers {
			t.Fatalf("unexpected reduce output %q (want every key summed to %d)", s, npeers)
		}
	}
	if spilled == 0 {
		t.Fatal("expected the owning peer to spill under the 256-byte threshold")
	}
}
