package mapreduce

import (
	"fmt"
	"sync"
	"testing"

	"seqmine/internal/transport"
)

// BenchmarkShuffleOverlapTCP measures the streaming pipelined shuffle against
// the phase-synchronous barrier on the multiprocess path: a compute-heavy map
// peer shuffles every record to a reducer peer over localhost TCP (two
// transport nodes). In barrier mode not a byte moves until the whole map
// phase finishes, so the job pays map + transfer + accumulate sequentially;
// with streaming, the sender goroutine moves frames — and the remote peer
// decodes and accumulates them — while mapping continues, so wall-clock
// approaches max(map, shuffle) instead of the sum.
func BenchmarkShuffleOverlapTCP(b *testing.B) {
	for _, mode := range []struct {
		name    string
		shuffle ShuffleConfig
	}{
		{name: "barrier"},
		{name: "streaming", shuffle: ShuffleConfig{SendBufferBytes: 64 << 10}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			sc := mode.shuffle
			sc.SpillTmpDir = b.TempDir()
			for i := 0; i < b.N; i++ {
				runOverlapJob(b, fmt.Sprintf("overlap-%s-%d", mode.name, i), sc)
			}
		})
	}
}

// overlapCodec moves int keys and fixed-size byte payloads.
func overlapCodec() FrameCodec[int, []byte] {
	return FrameCodec[int, []byte]{
		AppendKey: func(buf []byte, k int) []byte { return AppendUvarint(buf, uint64(k)) },
		ReadKey: func(data []byte, pos int) (int, int, error) {
			v, pos, err := ReadUvarint(data, pos)
			return int(v), pos, err
		},
		AppendValue: func(buf []byte, v []byte) []byte {
			buf = AppendUvarint(buf, uint64(len(v)))
			return append(buf, v...)
		},
		ReadValue: func(data []byte, pos int) ([]byte, int, error) {
			n, pos, err := ReadUvarint(data, pos)
			if err != nil {
				return nil, 0, err
			}
			if n > uint64(len(data)-pos) {
				return nil, 0, fmt.Errorf("truncated payload")
			}
			return data[pos : pos+int(n)], pos + int(n), nil
		},
	}
}

func runOverlapJob(b *testing.B, jobID string, sc ShuffleConfig) {
	b.Helper()
	const (
		npeers        = 2
		mapperInputs  = 96
		recordsPerMap = 24
		payloadSize   = 16 << 10
		spinPerRecord = 12000 // CPU work per emitted record
	)
	nodes := make([]*transport.Node, npeers)
	addrs := make([]string, npeers)
	for i := range nodes {
		node, err := transport.NewNode("127.0.0.1:0", transport.Config{})
		if err != nil {
			b.Fatal(err)
		}
		defer node.Close()
		nodes[i] = node
		addrs[i] = node.Addr()
	}

	codec := overlapCodec()
	job := Job[int, int, []byte, int]{
		Map: func(base int, emit func(int, []byte)) {
			payload := make([]byte, payloadSize)
			for r := 0; r < recordsPerMap; r++ {
				// Deterministic CPU burn standing in for pivot search /
				// NFA construction.
				x := uint64(base*recordsPerMap + r)
				for s := 0; s < spinPerRecord; s++ {
					x = HashUint64(x)
				}
				payload[0] = byte(x)
				emit(base*recordsPerMap+r, payload)
			}
		},
		Reduce: func(k int, vs [][]byte, emit func(int)) {
			total := 0
			for _, v := range vs {
				total += len(v)
			}
			emit(total)
		},
		Hash:   func(k int) uint64 { return 1 }, // every key lives on the reducer peer
		SizeOf: func(k int, v []byte) int { return 1 + 2 + len(v) },
		Codec:  &codec,
	}

	var wg sync.WaitGroup
	errs := make([]error, npeers)
	counts := make([]int, npeers)
	for p := 0; p < npeers; p++ {
		var inputs []int
		if p == 0 { // peer 0 maps everything; peer 1 owns every key
			inputs = make([]int, mapperInputs)
			for i := range inputs {
				inputs[i] = i
			}
		}
		wg.Add(1)
		go func(p int, inputs []int) {
			defer wg.Done()
			bx, err := nodes[p].OpenExchange(jobID, p, addrs)
			if err != nil {
				errs[p] = err
				return
			}
			defer bx.Close()
			// One map worker: the contrast under test is whether the shuffle
			// (sender, remote accumulate) can use the remaining cores while
			// the map core is busy.
			cfg := Config{MapWorkers: 1, ReduceWorkers: 2, Shuffle: sc}
			out, _, err := Run(inputs, cfg, job, bx)
			errs[p] = err
			counts[p] = len(out)
		}(p, inputs)
	}
	wg.Wait()
	total := 0
	for p := 0; p < npeers; p++ {
		if errs[p] != nil {
			b.Fatalf("peer %d: %v", p, errs[p])
		}
		total += counts[p]
	}
	if total != mapperInputs*recordsPerMap {
		b.Fatalf("reduced %d keys, want %d", total, mapperInputs*recordsPerMap)
	}
}

// BenchmarkStreamEmitContention measures the emit hot path of the streaming
// shuffle under map-worker parallelism: many map workers emitting tiny
// records toward two destinations. Before the send buffers were sharded per
// map worker, every emit to one destination serialized on a single mutex, so
// this benchmark scaled inversely with MapWorkers; with per-worker shards the
// emits are contention-free and only flush handoffs synchronize.
func BenchmarkStreamEmitContention(b *testing.B) {
	codec := overlapCodec()
	payload := make([]byte, 16)
	job := Job[int, int, []byte, int]{
		Map: func(base int, emit func(int, []byte)) {
			for r := 0; r < 64; r++ {
				emit(base*64+r, payload)
			}
		},
		Reduce: func(k int, vs [][]byte, emit func(int)) { emit(len(vs)) },
		Hash:   func(k int) uint64 { return uint64(k) },
		SizeOf: func(k int, v []byte) int { return 1 + 1 + len(v) },
		Codec:  &codec,
	}
	inputs := make([]int, 512)
	for i := range inputs {
		inputs[i] = i
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := Config{MapWorkers: workers, ReduceWorkers: 2,
				Shuffle: ShuffleConfig{SendBufferBytes: 32 << 10, SpillTmpDir: b.TempDir()}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				group := newMemFabric(2)
				var wg sync.WaitGroup
				for p := range group {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						var split []int
						if p == 0 {
							split = inputs
						}
						if _, _, err := Run(split, cfg, job, group[p]); err != nil {
							b.Error(err)
						}
					}(p)
				}
				wg.Wait()
			}
		})
	}
}
