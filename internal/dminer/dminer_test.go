package dminer

import (
	"io"
	"reflect"
	"testing"

	"seqmine/internal/dict"
	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
)

// countJob is a minimal distributed-miner-shaped job: it counts item
// occurrences and emits one single-item pattern per frequent item.
func countJob(sigma int64) mapreduce.Job[int, int, int64, miner.Pattern] {
	job := mapreduce.Job[int, int, int64, miner.Pattern]{
		Map: func(v int, emit func(int, int64)) { emit(v, 1) },
		Reduce: func(k int, vs []int64, emit func(miner.Pattern)) {
			var sum int64
			for _, v := range vs {
				sum += v
			}
			if sum >= sigma {
				emit(miner.Pattern{Items: []dict.ItemID{dict.ItemID(k)}, Freq: sum})
			}
		},
		Hash: func(k int) uint64 { return mapreduce.HashUint64(uint64(k)) },
	}
	codec := mapreduce.FrameCodec[int, int64]{
		AppendKey: func(buf []byte, k int) []byte { return mapreduce.AppendUvarint(buf, uint64(k)) },
		ReadKey: func(data []byte, pos int) (int, int, error) {
			v, pos, err := mapreduce.ReadUvarint(data, pos)
			return int(v), pos, err
		},
		AppendValue: func(buf []byte, v int64) []byte { return mapreduce.AppendUvarint(buf, uint64(v)) },
		ReadValue: func(data []byte, pos int) (int64, int, error) {
			v, pos, err := mapreduce.ReadUvarint(data, pos)
			return int64(v), pos, err
		},
	}
	job.Codec = &codec
	return job
}

var countInputs = []int{3, 1, 2, 3, 3, 2, 1, 3}

func TestMineLocalSortsPatterns(t *testing.T) {
	out, metrics, err := Mine(countInputs, mapreduce.Config{Workers: 2,
		Shuffle: mapreduce.ShuffleConfig{SendBufferBytes: 4}}, countJob(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []miner.Pattern{
		{Items: []dict.ItemID{3}, Freq: 4},
		{Items: []dict.ItemID{1}, Freq: 2},
		{Items: []dict.ItemID{2}, Freq: 2},
	}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("Mine = %+v, want %+v", out, want)
	}
	if metrics.StreamedBatches == 0 {
		t.Error("the streaming config should have streamed batches")
	}
}

func TestMineReportsFailure(t *testing.T) {
	job := countJob(1)
	job.Codec = nil
	out, _, err := Mine(countInputs, mapreduce.Config{Shuffle: mapreduce.ShuffleConfig{SpillThreshold: 1}}, job, nil)
	if err == nil || out != nil {
		t.Fatalf("bounded shuffle without a codec: Mine = %v, %v; want no patterns and an error", out, err)
	}
}

func TestMineReturnsOutput(t *testing.T) {
	out, _, err := Mine(countInputs, mapreduce.Config{}, countJob(4), nil)
	if err != nil || len(out) != 1 || out[0].Freq != 4 {
		t.Errorf("Mine = %+v, %v; want the single frequent item", out, err)
	}
}

// soloFabric is a single-peer ByteExchange: Mine over it reduces every key
// locally, which exercises the wire-exchange wiring without a network.
type soloFabric struct{}

func (soloFabric) NumPeers() int          { return 1 }
func (soloFabric) Self() int              { return 0 }
func (soloFabric) Send(int, []byte) error { panic("single-peer job must not send") }
func (soloFabric) CloseSend() error       { return nil }
func (soloFabric) Recv() ([]byte, error)  { return nil, io.EOF }
func (soloFabric) WireBytesOut() int64    { return 0 }

func TestMinePeerSinglePeer(t *testing.T) {
	job := countJob(2)
	out, metrics, err := Mine(countInputs, mapreduce.Config{Workers: 2}, job, soloFabric{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Errorf("Mine = %+v, want 3 patterns", out)
	}
	if !metrics.RemoteShuffle {
		t.Error("wire metrics should be reported for a wire exchange")
	}
}

func TestGroupCombiner(t *testing.T) {
	type rec struct {
		id     string
		weight int64
	}
	combine := GroupCombiner[int](
		func(buf []byte, r rec) []byte { return append(buf, r.id...) },
		func(dst *rec, src rec) { dst.weight += src.weight },
	)
	got := combine(0, []rec{{"a", 1}, {"b", 2}, {"a", 3}, {"c", 1}, {"b", 1}})
	want := []rec{{"a", 4}, {"b", 3}, {"c", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("GroupCombiner = %+v, want %+v (first-seen order, merged weights)", got, want)
	}
	if single := combine(0, []rec{{"a", 7}}); !reflect.DeepEqual(single, []rec{{"a", 7}}) {
		t.Errorf("GroupCombiner on a single value = %+v, want it unchanged", single)
	}
}

// TestGroupCombinerSteadyState pins the combiner at zero allocations once its
// scratch is warm, for a large group followed by small ones (the table is
// sized per call, not kept at the largest size seen).
func TestGroupCombinerSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	type rec struct {
		key    [4]byte
		weight int64
	}
	combine := GroupCombiner[int](
		func(buf []byte, r rec) []byte { return append(buf, r.key[:]...) },
		func(dst *rec, src rec) { dst.weight += src.weight },
	)
	group := func(n, distinct int) []rec {
		vs := make([]rec, n)
		for i := range vs {
			vs[i] = rec{key: [4]byte{byte(i % distinct), byte(i % distinct >> 8)}, weight: 1}
		}
		return vs
	}
	large, small := group(5000, 700), group(9, 4)
	buf := make([]rec, len(large))
	pass := func() {
		if got := combine(0, buf[:copy(buf, large)]); len(got) != 700 || got[3].weight != 8 {
			t.Fatalf("large group combined to %d values (weight %d), want 700 (8)", len(got), got[3].weight)
		}
		if got := combine(0, buf[:copy(buf, small)]); len(got) != 4 || got[0].weight != 3 {
			t.Fatalf("small group combined to %d values (weight %d), want 4 (3)", len(got), got[0].weight)
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(20, pass); allocs > 0 {
		t.Errorf("warm GroupCombiner: %v allocs per pass, want 0", allocs)
	}
}
