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
	cfg := Config{MapWorkers: 3, ReduceWorkers: 3}
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
	want, _ := runAlone(t, inputs, Config{MapWorkers: 2, ReduceWorkers: 2}, job)
	sort.Strings(want)

	out, metrics, errs := runGroup(job, newMemFabric(3), splitInputs(inputs, 3), func(int) Config {
		return Config{MapWorkers: 2, ReduceWorkers: 2,
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

// TestSpillCompression runs the same spilling job with and without DEFLATE
// segments: the output must be identical and the compressed run's
// SpilledBytes — the on-disk size — must be smaller on the redundant
// fixture.
func TestSpillCompression(t *testing.T) {
	inputs := spillInputs(300)
	cfg := Config{MapWorkers: 3, ReduceWorkers: 3}
	want, _ := runAlone(t, inputs, cfg, spillWordCountJob())
	sort.Strings(want)

	var plain, compressed Metrics
	for _, compress := range []bool{false, true} {
		cfg.Shuffle = ShuffleConfig{SpillThreshold: 512, SpillTmpDir: t.TempDir(), CompressSpill: compress}
		got, metrics := runAlone(t, inputs, cfg, spillWordCountJob())
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("compression=%v: spilled output differs from in-memory output", compress)
		}
		if metrics.SpillCount == 0 || metrics.SpilledBytes == 0 {
			t.Fatalf("compression=%v: expected spilling, got %+v", compress, metrics)
		}
		if compress {
			compressed = metrics
		} else {
			plain = metrics
		}
	}
	if compressed.SpilledBytes >= plain.SpilledBytes {
		t.Errorf("compressed spill (%d bytes) is not smaller than plain spill (%d bytes)",
			compressed.SpilledBytes, plain.SpilledBytes)
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
	cfg := Config{MapWorkers: 2, ReduceWorkers: 2,
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

// nextBatch reads a segment's next frame the way the k-way merge consumes it
// (nextRaw, then the codec's key and value decoders) and returns the decoded
// batch with its encoded key.
func nextBatch[K comparable, V any](r *segmentReader[K, V]) ([]byte, KeyBatch[K, V], error) {
	var b KeyBatch[K, V]
	keyBytes, raw, count, err := r.nextRaw()
	if err != nil {
		return nil, b, err
	}
	if b.Key, _, err = r.codec.ReadKey(keyBytes, 0); err != nil {
		return nil, b, err
	}
	b.Values, err = r.codec.appendValues(make([]V, 0, count), raw, count)
	return keyBytes, b, err
}

func TestSegmentWriterReaderRoundTrip(t *testing.T) {
	codec := testCodec()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	w := segmentWriter[string, int]{codec: &codec, bw: bw}
	batches := []KeyBatch[string, int]{
		{Key: "alpha", Values: []int{1, 2, 3}},
		{Key: "beta", Values: []int{4}},
		{Key: "gamma", Values: []int{5, 6}},
	}
	for _, b := range batches {
		if err := w.writeKey(codec.AppendKey(nil, b.Key), b.Values); err != nil {
			t.Fatalf("writeKey: %v", err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	r := newSegmentReader(&codec, bufio.NewReader(bytes.NewReader(buf.Bytes())), maxSpillFrame)
	var got []KeyBatch[string, int]
	for {
		keyBytes, b, err := nextBatch(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		if !bytes.Equal(keyBytes, codec.AppendKey(nil, b.Key)) {
			t.Errorf("keyBytes mismatch for %q", b.Key)
		}
		got = append(got, b)
	}
	if !reflect.DeepEqual(got, batches) {
		t.Errorf("round trip: got %+v want %+v", got, batches)
	}
}

func TestSegmentReaderCorrupt(t *testing.T) {
	codec := testCodec()
	valid := func() []byte {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		w := segmentWriter[string, int]{codec: &codec, bw: bw}
		if err := w.writeKey(codec.AppendKey(nil, "k"), []int{7}); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		return buf.Bytes()
	}()

	cases := map[string][]byte{
		"truncated frame":    valid[:len(valid)-1],
		"oversized length":   {0xff, 0xff, 0xff, 0xff, 0x7f},
		"zero-length frame":  {0x00},
		"garbage payload":    {0x03, 0xff, 0xff, 0xff},
		"length then eof":    {0x10},
		"overflowing varint": bytes.Repeat([]byte{0xff}, 12),
	}
	for name, data := range cases {
		r := newSegmentReader(&codec, bufio.NewReader(bytes.NewReader(data)), 1<<20)
		for {
			_, _, err := nextBatch(r)
			if err == io.EOF {
				t.Errorf("%s: reader reported a clean EOF on corrupt input", name)
				break
			}
			if err != nil {
				break // any non-EOF error is the expected outcome
			}
		}
	}
}

func TestSegmentReaderDefaultMaxFrame(t *testing.T) {
	codec := testCodec()
	// maxFrame <= 0 falls back to the package default bound.
	r := newSegmentReader(&codec, bufio.NewReader(bytes.NewReader(nil)), 0)
	if r.maxFrame != maxSpillFrame {
		t.Errorf("default maxFrame = %d, want %d", r.maxFrame, maxSpillFrame)
	}
	if _, _, err := nextBatch(r); err != io.EOF {
		t.Errorf("empty segment: err = %v, want io.EOF", err)
	}
}

func TestSegmentWriterRejectsOversizedFrame(t *testing.T) {
	codec := testCodec()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	// A 64-byte frame bound: a key whose values cannot fit must be rejected
	// at write time, not produce a segment the reader would refuse.
	w := segmentWriter[string, int]{codec: &codec, bw: bw, maxFrame: 64}
	keyBytes := codec.AppendKey(nil, strings.Repeat("k", 80))
	if err := w.writeKey(keyBytes, []int{1}); err == nil {
		t.Fatal("expected an oversized-frame error")
	}
	// A frame under the bound still writes.
	if err := w.writeKey(codec.AppendKey(nil, "ok"), []int{1, 2}); err != nil {
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
	want, _ := runAlone(t, inputs, Config{MapWorkers: 2, ReduceWorkers: 2}, job)
	sort.Strings(want)

	cfg := Config{MapWorkers: 2, ReduceWorkers: 2,
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
