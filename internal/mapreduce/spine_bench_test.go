package mapreduce

import (
	"fmt"
	"math/rand"
	"testing"
)

// spineWorkload builds a fixed set of send runs (40 runs of 10 key batches
// over 120 distinct keys) and their encoded forms, the common currency of
// the shuffle spine stages.
func spineWorkload() ([]map[string][]int, [][]byte) {
	rng := rand.New(rand.NewSource(7))
	codec := testCodec()
	var enc runEncoder[string, int]
	groups := make([]map[string][]int, 40)
	runs := make([][]byte, len(groups))
	for i := range groups {
		groups[i] = map[string][]int{}
		for len(groups[i]) < 10 {
			vs := make([]int, rng.Intn(6)+1)
			for j := range vs {
				vs[j] = rng.Intn(1000)
			}
			groups[i][fmt.Sprintf("key-%03d", rng.Intn(120))] = vs
		}
		if err := enc.writeRun(&codec, groups[i], func(p []byte) error {
			runs[i] = append(runs[i], p...)
			return nil
		}); err != nil {
			panic(err)
		}
	}
	return groups, runs
}

// TestEncodeRunDoesNotAllocate pins the encode-run stage of
// BenchmarkShuffleSpine at zero allocations per pass: a warm sender sorts and
// writes every run it is handed with its one run encoder.
func TestEncodeRunDoesNotAllocate(t *testing.T) {
	codec := testCodec()
	groups, _ := spineWorkload()
	var enc runEncoder[string, int]
	sent := 0
	send := func(p []byte) error { sent += len(p); return nil }
	pass := func() {
		for _, g := range groups {
			if err := enc.writeRun(&codec, g, send); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	if n := testing.AllocsPerRun(20, pass); n != 0 {
		t.Fatalf("writing %d runs allocates %.0f times per pass, want 0", len(groups), n)
	}
}

// BenchmarkShuffleSpine measures the shuffle/reduce spine stage by stage with
// allocations reported: a sender's run encoding, the arrival check of
// received runs, the spill of the merged runs, and the k-way merge over
// spilled segments plus the final in-memory runs.
func BenchmarkShuffleSpine(b *testing.B) {
	codec := testCodec()
	groups, runs := spineWorkload()
	add := func(acc *shuffleAccumulator[string, int], lo, hi int) {
		for i := lo; i < hi; i++ {
			if i%2 == 0 { // half the runs are this peer's own, decoded
				for k, vs := range groups[i] {
					if err := acc.add(KeyBatch[string, int]{Key: k, Values: vs}); err != nil {
						b.Fatal(err)
					}
				}
			} else if err := acc.addRun(runs[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
	spill := func(acc *shuffleAccumulator[string, int]) {
		acc.mu.Lock()
		err := acc.spillLocked()
		acc.mu.Unlock()
		if err != nil {
			b.Fatal(err)
		}
	}

	b.Run("encode-run", func(b *testing.B) {
		b.ReportAllocs()
		var enc runEncoder[string, int]
		discard := func([]byte) error { return nil }
		for i := 0; i < b.N; i++ {
			for _, g := range groups {
				if err := enc.writeRun(&codec, g, discard); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("add-run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			acc := newShuffleAccumulator[string, int](nil, ShuffleConfig{}, nil, &codec, nil)
			for _, run := range runs {
				if err := acc.addRun(run); err != nil {
					b.Fatal(err)
				}
			}
			acc.release()
		}
	})

	b.Run("spill", func(b *testing.B) {
		dir := b.TempDir()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			acc := newShuffleAccumulator[string, int](nil,
				ShuffleConfig{SpillThreshold: 1 << 30, SpillTmpDir: dir}, nil, &codec, nil)
			add(acc, 0, len(runs))
			spill(acc)
			acc.release()
		}
	})

	b.Run("merge", func(b *testing.B) {
		acc := newShuffleAccumulator[string, int](nil,
			ShuffleConfig{SpillThreshold: 1 << 30, SpillTmpDir: b.TempDir()}, nil, &codec, nil)
		defer acc.release()
		third := len(runs) / 3
		add(acc, 0, third)
		spill(acc)
		add(acc, third, 2*third)
		spill(acc)
		add(acc, 2*third, len(runs)) // the final runs stay in memory
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := acc.feed(func(_ string, _ []int, release func()) error { release(); return nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
}
