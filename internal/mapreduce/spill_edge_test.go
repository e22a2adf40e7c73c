package mapreduce

import (
	"bufio"
	"bytes"
	"compress/flate"
	"context"
	"io"
	"reflect"
	"sort"
	"testing"
)

// TestSegmentReaderZeroRecordSegment: a segment that was finished without a
// single frame (every buffered key drained to another segment, or a spill of
// an empty run) must read back as an immediate clean io.EOF on both the
// decoded and the raw paths, plain and compressed.
func TestSegmentReaderZeroRecordSegment(t *testing.T) {
	codec := testCodec()
	t.Run("plain", func(t *testing.T) {
		r := newSegmentReader(&codec, bufio.NewReader(bytes.NewReader(nil)), maxSpillFrame)
		if _, _, err := nextBatch(r); err != io.EOF {
			t.Fatalf("next on empty segment: %v, want io.EOF", err)
		}
		rr := newSegmentReader(&codec, bufio.NewReader(bytes.NewReader(nil)), maxSpillFrame)
		if _, _, _, err := rr.nextRaw(); err != io.EOF {
			t.Fatalf("nextRaw on empty segment: %v, want io.EOF", err)
		}
	})
	t.Run("compressed", func(t *testing.T) {
		// A compressed zero-record segment is not zero bytes: it is a valid
		// empty DEFLATE stream, which must still yield a clean io.EOF.
		var buf bytes.Buffer
		fw, _ := flate.NewWriter(&buf, flate.BestSpeed)
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		r := newSegmentReader(&codec, bufio.NewReader(flate.NewReader(bytes.NewReader(buf.Bytes()))), maxSpillFrame)
		if _, _, err := nextBatch(r); err != io.EOF {
			t.Fatalf("next on empty compressed segment: %v, want io.EOF", err)
		}
	})
}

// TestSegmentReaderTornCompressedSegment tears a compressed segment at every
// region of the compressed byte stream. A DEFLATE stream cut before its final
// block can never end cleanly, so the reader must surface an error — not a
// silent io.EOF that would drop the tail of a spill — and must never yield a
// frame that was not fully written.
func TestSegmentReaderTornCompressedSegment(t *testing.T) {
	codec := testCodec()
	var buf bytes.Buffer
	fw, _ := flate.NewWriter(&buf, flate.BestSpeed)
	bw := bufio.NewWriter(fw)
	w := segmentWriter[string, int]{codec: &codec, bw: bw}
	written := map[string][]int{"alpha": {1, 2, 3}, "beta": {300}, "gamma": {7, 8, 9, 10}}
	for _, k := range []string{"alpha", "beta", "gamma"} {
		if err := w.writeKey(codec.AppendKey(nil, k), written[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	cuts := []int{0, 1, len(full) / 4, len(full) / 2, 3 * len(full) / 4, len(full) - 1}
	for _, cut := range cuts {
		r := newSegmentReader(&codec, bufio.NewReader(flate.NewReader(bytes.NewReader(full[:cut]))), maxSpillFrame)
		frames := 0
		for {
			_, batch, err := nextBatch(r)
			if err == io.EOF {
				t.Fatalf("cut=%d: torn compressed segment ended with a clean io.EOF after %d frames", cut, frames)
			}
			if err != nil {
				break // surfaced the tear; exactly what the reduce path needs
			}
			if _, ok := written[batch.Key]; !ok {
				t.Fatalf("cut=%d: reader invented key %q", cut, batch.Key)
			}
			if frames++; frames > len(written) {
				t.Fatalf("cut=%d: reader yielded more frames than were written", cut)
			}
		}
	}
}

// TestSpillCrossBufferRawChunksThreeFlushes drives the accumulator the way a
// streaming shuffle does when one hot key keeps arriving across buffer
// flushes: decoded self-owned batches and raw wire frames for the same key land
// in three separate runs (two spilled, one left in memory). The merge must
// deliver the key exactly once, with the per-spill external combine collapsing
// each decoded run and the raw chunks preserved byte-for-byte in
// segment-then-arrival order.
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
	frame := func(k string, vs ...int) []byte {
		return codec.EncodeBatch(nil, KeyBatch[string, int]{Key: k, Values: vs})
	}
	spill := func() {
		acc.mu.Lock()
		err := acc.spillLocked()
		acc.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}

	// Flush 1: two decoded batches (combine collapses them to [6] at spill
	// time) plus a raw frame for the same key, and a raw-only key.
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(acc.add(KeyBatch[string, int]{Key: "hot", Values: []int{1, 2}}))
	must(acc.add(KeyBatch[string, int]{Key: "hot", Values: []int{3}}))
	must(acc.addRaw(frame("hot", 10)))
	must(acc.addRaw(frame("rawonly", 7, 8)))
	spill()
	// Flush 2: the same key again, one decoded and one raw contribution.
	must(acc.add(KeyBatch[string, int]{Key: "hot", Values: []int{4}}))
	must(acc.addRaw(frame("hot", 20, 21)))
	spill()
	// Flush 3 stays in memory: a final raw chunk plus a decoded-only key.
	must(acc.addRaw(frame("hot", 30)))
	must(acc.add(KeyBatch[string, int]{Key: "memonly", Values: []int{5}}))

	if _, n := acc.stats(); n != 2 {
		t.Fatalf("spill count = %d, want 2", n)
	}
	got := map[string][]int{}
	var order []string
	err := acc.merge(func(k string, vs []int) error {
		if _, dup := got[k]; dup {
			t.Fatalf("merge delivered key %q twice", k)
		}
		got[k] = append([]int(nil), vs...)
		order = append(order, k)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]int{
		// Segment order (seg 0, seg 1, in-memory runs), decoded-before-raw
		// within a segment, arrival order within a raw group.
		"hot":     {6, 10, 4, 20, 21, 30},
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
