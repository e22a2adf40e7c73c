package mapreduce

import (
	"fmt"
	"math/rand"
	"testing"
)

// spineWorkload builds a fixed batch set (120 distinct keys, 400 batches) and
// its encoded wire frames, the common currency of the shuffle spine stages.
func spineWorkload() ([]KeyBatch[string, int], [][]byte) {
	rng := rand.New(rand.NewSource(7))
	codec := testCodec()
	batches := make([]KeyBatch[string, int], 400)
	frames := make([][]byte, len(batches))
	for i := range batches {
		vs := make([]int, rng.Intn(6)+1)
		for j := range vs {
			vs[j] = rng.Intn(1000)
		}
		batches[i] = KeyBatch[string, int]{Key: fmt.Sprintf("key-%03d", rng.Intn(120)), Values: vs}
		frames[i] = codec.EncodeBatch(nil, batches[i])
	}
	return batches, frames
}

// TestEncodeBatchDoesNotAllocate pins the encode stage of BenchmarkShuffleSpine
// at zero allocations per pass: a sender encodes every combined batch into one
// reused frame buffer.
func TestEncodeBatchDoesNotAllocate(t *testing.T) {
	codec := testCodec()
	batches, _ := spineWorkload()
	var buf []byte
	if n := testing.AllocsPerRun(20, func() {
		for _, batch := range batches {
			buf = codec.EncodeBatch(buf[:0], batch)
		}
	}); n != 0 {
		t.Fatalf("EncodeBatch allocates %.0f times per pass over %d batches, want 0", n, len(batches))
	}
}

// BenchmarkShuffleSpine measures the shuffle/reduce spine stage by stage with
// allocations reported, to show the cost of the encoded-byte design: encode
// into a reused buffer, receive-side grouping by encoded key without decoding,
// the sort+spill of one full run, and the k-way merge over spilled segments
// plus the final in-memory runs.
func BenchmarkShuffleSpine(b *testing.B) {
	codec := testCodec()
	batches, frames := spineWorkload()

	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			for _, batch := range batches {
				buf = codec.EncodeBatch(buf[:0], batch)
			}
		}
	})

	b.Run("group-raw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			acc := newShuffleAccumulator[string, int](nil, ShuffleConfig{}, nil, &codec, nil)
			for _, f := range frames {
				if err := acc.addRaw(f); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("sort-spill", func(b *testing.B) {
		dir := b.TempDir()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			acc := newShuffleAccumulator[string, int](nil,
				ShuffleConfig{SpillThreshold: 1 << 30, SpillTmpDir: dir}, nil, &codec, nil)
			for _, batch := range batches[:len(batches)/2] {
				if err := acc.add(batch); err != nil {
					b.Fatal(err)
				}
			}
			for _, f := range frames[len(frames)/2:] {
				if err := acc.addRaw(f); err != nil {
					b.Fatal(err)
				}
			}
			acc.mu.Lock()
			err := acc.spillLocked()
			acc.mu.Unlock()
			if err != nil {
				b.Fatal(err)
			}
			acc.cleanup()
		}
	})

	b.Run("merge", func(b *testing.B) {
		acc := newShuffleAccumulator[string, int](nil,
			ShuffleConfig{SpillThreshold: 1 << 30, SpillTmpDir: b.TempDir()}, nil, &codec, nil)
		defer acc.cleanup()
		third := len(batches) / 3
		fill := func(lo, hi int) {
			for _, batch := range batches[lo:hi] {
				if err := acc.add(batch); err != nil {
					b.Fatal(err)
				}
			}
			for _, f := range frames[lo:hi] {
				if err := acc.addRaw(f); err != nil {
					b.Fatal(err)
				}
			}
		}
		fill(0, third)
		acc.mu.Lock()
		if err := acc.spillLocked(); err != nil {
			acc.mu.Unlock()
			b.Fatal(err)
		}
		acc.mu.Unlock()
		fill(third, 2*third)
		acc.mu.Lock()
		if err := acc.spillLocked(); err != nil {
			acc.mu.Unlock()
			b.Fatal(err)
		}
		acc.mu.Unlock()
		fill(2*third, len(batches)) // final runs stay in memory
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := acc.merge(func(string, []int) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
}
