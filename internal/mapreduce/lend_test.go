package mapreduce

import (
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// lendingCases are the four ways a group reaches Reduce: decoded or still
// encoded (a peer's own records or another peer's runs), and from runs held
// in memory (the cases named walk) or spilled to segments (merge) — the one
// k-way merge feeds both.
func lendingCases(t *testing.T) []struct {
	name  string
	peers int
	cfg   Config
} {
	spill := func() Config {
		return Config{Workers: 2,
			Shuffle: ShuffleConfig{SpillThreshold: 256, SendBufferBytes: 64, SpillTmpDir: t.TempDir()}}
	}
	return []struct {
		name  string
		peers int
		cfg   Config
	}{
		{"alone/walk", 1, Config{Workers: 2}},
		{"alone/merge", 1, spill()},
		{"peers/walk", 3, Config{Workers: 2}},
		{"peers/merge", 3, spill()},
	}
}

// runLending runs job alone or on an in-memory fabric of peers.
func runLending(t *testing.T, job Job[string, string, int, string], inputs []string, peers int, cfg Config) ([]string, int64) {
	t.Helper()
	if peers == 1 {
		out, m := runAlone(t, inputs, cfg, job)
		sort.Strings(out)
		return out, m.SpillCount
	}
	out, metrics, errs := runGroup(job, newMemFabric(peers), splitInputs(inputs, peers), func(int) Config { return cfg })
	var spills int64
	for p, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", p, err)
		}
		spills += metrics[p].SpillCount
	}
	return out, spills
}

// TestPoisonOnReleaseExposesRetainedValues: a Reduce that keeps the values it
// was lent sees every one of them overwritten under the hook, on each path a
// group can take to Reduce.
func TestPoisonOnReleaseExposesRetainedValues(t *testing.T) {
	defer PoisonOnRelease(true)()
	inputs := spillInputs(120)
	for _, tc := range lendingCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			var (
				mu           sync.Mutex
				kept, copies [][]int
			)
			job := spillWordCountJob()
			job.Map = func(line string, emit func(string, int)) {
				// Values that name their key: a retained group that a later
				// one overwrote reads differently too.
				for _, w := range strings.Fields(line) {
					n, _ := strconv.Atoi(strings.TrimPrefix(w, "word"))
					emit(w, n+1)
				}
			}
			job.Combine = nil // Reduce must see the lent slice itself
			job.Reduce = func(k string, vs []int, emit func(string)) {
				mu.Lock()
				kept = append(kept, vs)
				copies = append(copies, slices.Clone(vs))
				mu.Unlock()
				emit(k)
			}
			_, spills := runLending(t, job, inputs, tc.peers, tc.cfg)
			if tc.cfg.Shuffle.Enabled() != (spills > 0) {
				t.Fatalf("spill segments = %d, want spilling iff the threshold is set", spills)
			}
			if len(kept) == 0 {
				t.Fatal("no group reached Reduce")
			}
			for i := range kept {
				if slices.Equal(kept[i], copies[i]) {
					t.Fatalf("retained group %d still reads %v after its release", i, kept[i])
				}
			}
		})
	}
}

// TestLendingContractUnderPoison runs jobs that keep the lending contract
// with the hook on: on every path, spilling included, the output is the
// sequential oracle's.
func TestLendingContractUnderPoison(t *testing.T) {
	defer PoisonOnRelease(true)()
	inputs := spillInputs(200)
	job := spillWordCountJob()
	want := wantOutput(job, inputs)
	for _, tc := range lendingCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			if got, _ := runLending(t, job, inputs, tc.peers, tc.cfg); !reflect.DeepEqual(got, want) {
				t.Errorf("output under the hook differs from the oracle: %d records, want %d", len(got), len(want))
			}
		})
	}
}

// intCodec moves int keys and values as varints.
func intCodec() FrameCodec[int, int] {
	return FrameCodec[int, int]{
		AppendKey: func(buf []byte, k int) []byte { return AppendUvarint(buf, uint64(k)) },
		ReadKey: func(data []byte, pos int) (int, int, error) {
			v, pos, err := ReadUvarint(data, pos)
			return int(v), pos, err
		},
		AppendValue: func(buf []byte, v int) []byte { return AppendUvarint(buf, uint64(v)) },
		ReadValue: func(data []byte, pos int) (int, int, error) {
			v, pos, err := ReadUvarint(data, pos)
			return int(v), pos, err
		},
	}
}

// TestSpillMergeReduceAllocations pins the receive side of a warm job at
// allocations per spill and per job, not per record or group: the
// groups·perGroup values are added three times, decoded as this peer's own
// and encoded as a remote sender's run, spilled twice, then merged with the
// final in-memory runs and reduced. Thirty-two times the records and four
// times the groups must not add allocations.
func TestSpillMergeReduceAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	codec := intCodec()
	var reduced atomic.Int64
	job := Job[int, int, int, int]{
		Reduce: func(_ int, vs []int, _ func(int)) { reduced.Add(int64(len(vs))) },
		Codec:  &codec,
	}
	cfg := Config{Workers: 2,
		Shuffle: ShuffleConfig{SpillThreshold: 1 << 40, SpillTmpDir: t.TempDir()}}.normalized()
	allocs := func(groups, perGroup int) float64 {
		values := make([]int, perGroup)
		for i := range values {
			values[i] = i + 1
		}
		remote := map[int][]int{}
		for k := 0; k < groups; k++ {
			remote[k] = values
		}
		var run []byte
		var enc runEncoder[int, int]
		if err := enc.writeRun(&codec, remote, func(p []byte) error { run = append(run, p...); return nil }); err != nil {
			t.Fatal(err)
		}
		pass := func() {
			acc := newShuffleAccumulator(cfg.Context, cfg.Shuffle, nil, &codec, func(int, int) int { return 2 })
			for r := 0; r < 3; r++ {
				if r > 0 {
					acc.mu.Lock()
					err := acc.spillLocked()
					acc.mu.Unlock()
					if err != nil {
						t.Fatal(err)
					}
				}
				for k := 0; k < groups; k++ {
					if err := acc.add(KeyBatch[int, int]{Key: k, Values: values}); err != nil {
						t.Fatal(err)
					}
				}
				if err := acc.addRun(run); err != nil {
					t.Fatal(err)
				}
			}
			var m Metrics
			if _, err := reduce(cfg, job, acc, &m); err != nil {
				t.Fatal(err)
			}
			if m.Partitions != int64(groups) || m.MaxPartitionRecords != int64(6*perGroup) {
				t.Fatalf("reduced %d groups of up to %d values, want %d of %d", m.Partitions, m.MaxPartitionRecords, groups, 6*perGroup)
			}
			acc.release()
		}
		pass() // warm the pools
		return testing.AllocsPerRun(10, pass)
	}
	small, large := allocs(128, 8), allocs(512, 64)
	t.Logf("allocations per job: %.0f (128 groups × 8 values), %.0f (512 × 64)", small, large)
	if small >= 128 {
		t.Errorf("a job of 128 groups allocates %.0f times, want fewer than one per group", small)
	}
	if large > small+8 {
		t.Errorf("32× the records and 4× the groups: %.0f allocations, want about the %.0f of the small job", large, small)
	}
}

// TestSendPathFlushAllocations pins a warm send-path flush toward this peer
// itself — seal, combine, hand-off into the accumulator, a recycled run for
// the next fill — at zero allocations.
func TestSendPathFlushAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	codec := intCodec()
	const keys, perKey = 32, 8
	job := Job[int, int, int, int]{
		Combine: func(_ int, vs []int) []int {
			sum := 0
			for _, v := range vs {
				sum += v
			}
			vs[0] = sum
			return vs[:1]
		},
		SizeOf: func(int, int) int { return 1 },
		Codec:  &codec,
	}
	cfg := Config{Workers: 1, Shuffle: ShuffleConfig{SendBufferBytes: keys * perKey}}.normalized()
	acc := newShuffleAccumulator(cfg.Context, cfg.Shuffle, nil, &codec, nil)
	defer acc.release()
	sp := newSendPath(cfg, job, acc, nil)
	b := &sp.bufs[0][0]
	flushes := 0
	fill := func() {
		// keys·perKey records fill the buffer; the next one flushes it.
		for i := 0; i < keys*perKey; i++ {
			sp.add(b, 0, i%keys, 1)
		}
		flushes++
		acc.mu.Lock()
		acc.recycleRun() // what a spill would do, without the disk
		acc.mu.Unlock()
	}
	for i := 0; i < 3; i++ {
		fill()
	}
	if n := testing.AllocsPerRun(20, fill); n != 0 {
		t.Errorf("a warm flush of %d keys × %d values allocates %.1f times, want 0", keys, perKey, n)
	}
	if sent := b.sent.batches; sent != int64(keys*(flushes-1)) {
		t.Fatalf("%d batches handed off after %d fills, want %d", sent, flushes, keys*(flushes-1))
	}
	if err := sp.finish(); err != nil {
		t.Fatal(err)
	}
}
