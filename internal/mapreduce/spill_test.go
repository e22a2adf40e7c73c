package mapreduce

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// spillWordCountJob is wordCountJob with the codec the spill path needs.
func spillWordCountJob() Job[string, string, int, string] {
	job := wordCountJob()
	c := testCodec()
	job.Codec = &c
	return job
}

// spillInputs is large enough that a tiny threshold spills many runs.
func spillInputs(lines int) []string {
	rng := rand.New(rand.NewSource(11))
	words := make([]string, 150)
	for i := range words {
		words[i] = fmt.Sprintf("word%03d", i)
	}
	out := make([]string, lines)
	for i := range out {
		parts := make([]string, 12)
		for j := range parts {
			parts[j] = words[rng.Intn(len(words))]
		}
		out[i] = strings.Join(parts, " ")
	}
	return out
}

func TestRunSpillEquivalence(t *testing.T) {
	inputs := spillInputs(300)
	cfg := Config{Workers: 3}
	want, wantMetrics := runAlone(t, inputs, cfg, spillWordCountJob())
	sort.Strings(want)
	if wantMetrics.SpilledBytes != 0 || wantMetrics.SpillCount != 0 {
		t.Fatalf("in-memory run reported spilling: %+v", wantMetrics)
	}

	const threshold = 256
	cfg.Shuffle = ShuffleConfig{SpillThreshold: threshold, SpillTmpDir: t.TempDir()}
	got, metrics := runAlone(t, inputs, cfg, spillWordCountJob())
	sort.Strings(got)

	if !reflect.DeepEqual(got, want) {
		t.Errorf("spilled output differs from in-memory output:\n got %d records\nwant %d records", len(got), len(want))
	}
	if metrics.SpilledBytes == 0 || metrics.SpillCount == 0 {
		t.Fatalf("expected spilling at threshold %d, got %+v", threshold, metrics)
	}
	// The acceptance bar: the shuffle footprint exceeds the threshold by
	// >= 10x, and the run still completes with identical results.
	if metrics.ShuffleBytes < 10*threshold {
		t.Fatalf("shuffle footprint %d bytes does not exceed the threshold %d by 10x; grow the fixture", metrics.ShuffleBytes, threshold)
	}
	if metrics.Partitions != wantMetrics.Partitions {
		t.Errorf("partitions: got %d want %d", metrics.Partitions, wantMetrics.Partitions)
	}
	if metrics.MaxPartitionRecords != wantMetrics.MaxPartitionRecords {
		t.Errorf("max partition records: got %d want %d", metrics.MaxPartitionRecords, wantMetrics.MaxPartitionRecords)
	}
}

func TestRunExchangeSpillMultiPeerLoopback(t *testing.T) {
	inputs := spillInputs(200)
	job := spillWordCountJob()
	want, _ := runAlone(t, inputs, Config{Workers: 2}, job)
	sort.Strings(want)

	out, metrics, errs := runGroup(job, newMemFabric(3), splitInputs(inputs, 3), func(int) Config {
		return Config{Workers: 2,
			Shuffle: ShuffleConfig{SpillThreshold: 512, SpillTmpDir: t.TempDir()}}
	})
	var spilled int64
	for p, m := range metrics {
		if errs[p] != nil {
			t.Fatalf("peer %d: %v", p, errs[p])
		}
		spilled += m.SpilledBytes
	}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("multi-peer spilled output differs from single-process in-memory output")
	}
	if spilled == 0 {
		t.Error("expected at least one peer to spill")
	}
}

func TestSpillRequiresCodec(t *testing.T) {
	job := wordCountJob() // no codec
	cfg := Config{Shuffle: ShuffleConfig{SpillThreshold: 1}}
	_, _, err := Run(wordCountInputs, cfg, job, nil)
	if err == nil {
		t.Fatal("expected an error for spilling without a codec")
	}
}

func TestSpillSingleHotKey(t *testing.T) {
	// One key carrying every record exercises the chunked segment writer
	// (frames capped at spillChunkBytes) and the cross-run regrouping.
	job := spillWordCountJob()
	var lines []string
	for i := 0; i < 4000; i++ {
		lines = append(lines, "hot")
	}
	job.Combine = nil // keep every record so the hot key has 4000 values
	cfg := Config{Workers: 2,
		Shuffle: ShuffleConfig{SpillThreshold: 128, SpillTmpDir: t.TempDir()}}
	out, metrics := runAlone(t, lines, cfg, job)
	if len(out) != 1 || out[0] != "hot=4000" {
		t.Fatalf("got %v, want [hot=4000]", out)
	}
	if metrics.SpillCount == 0 {
		t.Fatal("expected spilling")
	}
	if metrics.MaxPartitionRecords != 4000 {
		t.Errorf("MaxPartitionRecords = %d, want 4000", metrics.MaxPartitionRecords)
	}
}

// encodeRun writes batches, in the given order, as one run through the run
// writer every sender and spill uses. Sorted runs need the batches in
// encoded-key order: testCodec's keys sort by length first.
func encodeRun[K comparable, V any](codec *FrameCodec[K, V], maxRecord int, batches ...KeyBatch[K, V]) ([]byte, error) {
	var run []byte
	w := runWriter[K, V]{maxRecord: maxRecord}
	w.reset(codec, func(p []byte) error { run = append(run, p...); return nil })
	for _, b := range batches {
		w.openKey(codec.AppendKey(nil, b.Key))
		if err := w.addValues(b.Values); err != nil {
			return nil, err
		}
		if err := w.closeKey(); err != nil {
			return nil, err
		}
	}
	return run, w.end()
}

// runReaders returns the two readers of one run's bytes: as a segment (a
// buffered stream) and as a received run held in memory.
func runReaders[K comparable, V any](codec *FrameCodec[K, V], data []byte, maxFrame int) map[string]*runReader[K, V] {
	return map[string]*runReader[K, V]{
		"segment": {codec: codec, br: bufio.NewReader(bytes.NewReader(data)), maxFrame: maxFrame},
		"memory":  {codec: codec, data: data, maxFrame: maxFrame},
	}
}

// nextBatch reads a run's next record the way the k-way merge consumes it
// (next, then the codec's key and value decoders) and returns the decoded
// batch with its encoded key.
func nextBatch[K comparable, V any](r *runReader[K, V]) ([]byte, KeyBatch[K, V], error) {
	var b KeyBatch[K, V]
	rec, err := r.next()
	if err != nil {
		return nil, b, err
	}
	if b.Key, _, err = r.codec.ReadKey(rec.keyBytes, 0); err != nil {
		return nil, b, err
	}
	b.Values, err = r.codec.appendValues(make([]V, 0, rec.count), rec.vals, rec.count)
	return rec.keyBytes, b, err
}

func TestSegmentWriterReaderRoundTrip(t *testing.T) {
	codec := testCodec()
	batches := []KeyBatch[string, int]{
		{Key: "beta", Values: []int{4}}, // a shorter key sorts first
		{Key: "alpha", Values: []int{1, 2, 3}},
		{Key: "gamma", Values: []int{5, 6}},
	}
	data, err := encodeRun(&codec, 0, batches...)
	if err != nil {
		t.Fatalf("encodeRun: %v", err)
	}
	for form, r := range runReaders(&codec, data, maxSpillFrame) {
		var got []KeyBatch[string, int]
		for {
			keyBytes, b, err := nextBatch(r)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: next: %v", form, err)
			}
			if !bytes.Equal(keyBytes, codec.AppendKey(nil, b.Key)) {
				t.Errorf("%s: keyBytes mismatch for %q", form, b.Key)
			}
			got = append(got, b)
		}
		if !reflect.DeepEqual(got, batches) {
			t.Errorf("%s: round trip: got %+v want %+v", form, got, batches)
		}
	}
}

func TestSegmentReaderCorrupt(t *testing.T) {
	codec := testCodec()
	valid, err := encodeRun(&codec, 0, KeyBatch[string, int]{Key: "k", Values: []int{7}})
	if err != nil {
		t.Fatal(err)
	}
	unsorted, err := encodeRun(&codec, 0, KeyBatch[string, int]{Key: "b", Values: []int{1}}, KeyBatch[string, int]{Key: "a", Values: []int{2}})
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"truncated frame":    valid[:len(valid)-1],
		"oversized length":   {0xff, 0xff, 0xff, 0xff, 0x7f},
		"zero-length frame":  {0x00},
		"garbage payload":    {0x03, 0xff, 0xff, 0xff},
		"length then eof":    {0x10},
		"overflowing varint": bytes.Repeat([]byte{0xff}, 12),
		"keys out of order":  unsorted,
	}
	for name, data := range cases {
		for form, r := range runReaders(&codec, data, 1<<20) {
			for {
				_, _, err := nextBatch(r)
				if err == io.EOF {
					t.Errorf("%s, %s: reader reported a clean EOF on corrupt input", name, form)
					break
				}
				if err != nil {
					break // any non-EOF error is the expected outcome
				}
			}
		}
	}
}

// TestSegmentReaderDefaultMaxFrame: maxFrame <= 0 falls back to the package
// default bound, maxSpillFrame, on both forms of a run.
func TestSegmentReaderDefaultMaxFrame(t *testing.T) {
	codec := testCodec()
	big := make([]int, 3<<19) // 1.5 MiB of one-byte values: above 1 MiB, under the default
	data, err := encodeRun(&codec, 0, KeyBatch[string, int]{Key: "k", Values: big})
	if err != nil {
		t.Fatal(err)
	}
	tooLong := AppendUvarint(nil, maxSpillFrame+1)
	for _, maxFrame := range []int{0, -1} {
		for form, r := range runReaders(&codec, data, maxFrame) {
			n := 0
			for {
				_, b, err := nextBatch(r)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("maxFrame %d, %s: %v", maxFrame, form, err)
				}
				n += len(b.Values)
			}
			if n != len(big) {
				t.Errorf("maxFrame %d, %s: read %d values, want %d", maxFrame, form, n, len(big))
			}
		}
		for form, r := range runReaders(&codec, tooLong, maxFrame) {
			if _, _, err := nextBatch(r); err == nil || err == io.EOF {
				t.Errorf("maxFrame %d, %s: a record over maxSpillFrame gave %v, want an error", maxFrame, form, err)
			}
		}
	}
	for form, r := range runReaders(&codec, data, 1<<20) {
		if _, _, err := nextBatch(r); err == nil || err == io.EOF {
			t.Errorf("%s: a 1 MiB bound accepted a larger record (%v)", form, err)
		}
	}
	for form, r := range runReaders(&codec, nil, 0) {
		if _, _, err := nextBatch(r); err != io.EOF {
			t.Errorf("%s: empty run: err = %v, want io.EOF", form, err)
		}
	}
}

func TestSegmentWriterRejectsOversizedFrame(t *testing.T) {
	codec := testCodec()
	// A 64-byte record bound: a key whose values cannot fit must be rejected
	// at write time, not produce a run the reader would refuse.
	if _, err := encodeRun(&codec, 64, KeyBatch[string, int]{Key: strings.Repeat("k", 80), Values: []int{1}}); err == nil {
		t.Fatal("expected an oversized-frame error")
	}
	// A record under the bound still writes.
	if _, err := encodeRun(&codec, 64, KeyBatch[string, int]{Key: "ok", Values: []int{1, 2}}); err != nil {
		t.Fatalf("small frame: %v", err)
	}
}

// TestSpillPreservesEmptyValueKeys pins the engine contract that a key whose
// combiner pruned every value still reaches Reduce, spilled or not.
func TestSpillPreservesEmptyValueKeys(t *testing.T) {
	job := spillWordCountJob()
	// The combiner drops every value of the hottest word but keeps the key.
	job.Combine = func(k string, vs []int) []int {
		if k == "word000" {
			return nil
		}
		return vs
	}
	job.Reduce = func(k string, vs []int, emit func(string)) {
		emit(fmt.Sprintf("%s/%d", k, len(vs)))
	}
	inputs := spillInputs(200)
	want, _ := runAlone(t, inputs, Config{Workers: 2}, job)
	sort.Strings(want)

	cfg := Config{Workers: 2,
		Shuffle: ShuffleConfig{SpillThreshold: 256, SpillTmpDir: t.TempDir()}}
	got, metrics := runAlone(t, inputs, cfg, job)
	sort.Strings(got)
	if metrics.SpillCount == 0 {
		t.Fatal("expected spilling")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("spilling run dropped or altered keys:\n got %d keys\nwant %d keys", len(got), len(want))
	}
	found := false
	for _, s := range got {
		if s == "word000/0" {
			found = true
		}
	}
	if !found {
		t.Error("the empty-value key must still reach Reduce in the spilling run")
	}
}
