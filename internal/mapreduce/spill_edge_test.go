package mapreduce

import (
	"context"
	"io"
	"reflect"
	"sort"
	"testing"
)

// TestSegmentReaderZeroRecordSegment: a run without a single record (a
// segment of an empty spill) must read back as an immediate clean io.EOF.
func TestSegmentReaderZeroRecordSegment(t *testing.T) {
	codec := testCodec()
	t.Run("plain", func(t *testing.T) {
		for form, r := range runReaders(&codec, nil, maxSpillFrame) {
			if _, _, err := nextBatch(r); err != io.EOF {
				t.Fatalf("%s: next on empty run: %v, want io.EOF", form, err)
			}
		}
	})
}

// TestSpillCrossBufferRawChunksThreeFlushes drives the accumulator the way a
// streaming shuffle does when one hot key keeps arriving across buffer
// flushes: decoded self-owned batches and received runs for the same key land
// in three separate generations (two spilled, one left in memory). The merge
// must deliver the key exactly once, with the per-spill external combine
// collapsing each decoded run, the received values preserved byte for byte,
// and the order segment by segment, then the runs still in memory by
// arrival: within a spill, received runs by arrival, then the decoded run.
func TestSpillCrossBufferRawChunksThreeFlushes(t *testing.T) {
	codec := testCodec()
	acc := newShuffleAccumulator[string, int](context.Background(),
		ShuffleConfig{SpillThreshold: 1 << 20, SpillTmpDir: t.TempDir()}, nil, &codec, nil)
	defer acc.cleanup()
	acc.combine = func(_ string, vs []int) []int {
		s := 0
		for _, v := range vs {
			s += v
		}
		return []int{s}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	received := func(k string, vs ...int) {
		t.Helper()
		run, err := encodeRun(&codec, 0, KeyBatch[string, int]{Key: k, Values: vs})
		must(err)
		must(acc.addRun(run))
	}
	spill := func() {
		acc.mu.Lock()
		err := acc.spillLocked()
		acc.mu.Unlock()
		must(err)
	}

	// Flush 1: two decoded batches (combine collapses them to [6] at spill
	// time) plus a received run for the same key, and a received-only key.
	must(acc.add(KeyBatch[string, int]{Key: "hot", Values: []int{1, 2}}))
	must(acc.add(KeyBatch[string, int]{Key: "hot", Values: []int{3}}))
	received("hot", 10)
	received("rawonly", 7, 8)
	spill()
	// Flush 2: the same key again, one decoded and one received contribution.
	must(acc.add(KeyBatch[string, int]{Key: "hot", Values: []int{4}}))
	received("hot", 20, 21)
	spill()
	// Flush 3 stays in memory: a final received run plus a decoded-only key.
	received("hot", 30)
	must(acc.add(KeyBatch[string, int]{Key: "memonly", Values: []int{5}}))

	if _, n := acc.stats(); n != 2 {
		t.Fatalf("spill count = %d, want 2", n)
	}
	// A spill coalesces what all runs hold for a key into one record.
	for i, f := range acc.segs {
		r, err := openSegment(&codec, f)
		must(err)
		var keys []string
		for {
			_, b, err := nextBatch(&r)
			if err == io.EOF {
				break
			}
			must(err)
			keys = append(keys, b.Key)
		}
		r.close()
		if want := [][]string{{"hot", "rawonly"}, {"hot"}}[i]; !reflect.DeepEqual(keys, want) {
			t.Fatalf("segment %d holds records %v, want one per key: %v", i, keys, want)
		}
	}
	got := map[string][]int{}
	var order []string
	err := acc.feed(func(k string, vs []int, release func()) error {
		if _, dup := got[k]; dup {
			t.Fatalf("merge delivered key %q twice", k)
		}
		got[k] = append([]int(nil), vs...)
		order = append(order, k)
		release()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]int{
		"hot":     {10, 6, 20, 21, 4, 30},
		"rawonly": {7, 8},
		"memonly": {5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged groups = %v, want %v", got, want)
	}
	if !sort.StringsAreSorted(order) {
		t.Fatalf("merge delivered keys out of encoded order: %v", order)
	}
}
