package mapreduce

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// FuzzSpillSegmentReader feeds arbitrary bytes to the spill-segment reader.
// The reader must terminate with io.EOF or an error — never panic, spin, or
// allocate beyond its frame bound — because the reduce phase trusts it to
// fail cleanly on a corrupt or torn segment file.
func FuzzSpillSegmentReader(f *testing.F) {
	codec := testCodec()

	// Seed with a well-formed two-frame segment and a few mutations.
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	w := segmentWriter[string, int]{codec: &codec, bw: bw}
	_ = w.writeKey(codec.AppendKey(nil, "alpha"), []int{1, 2, 3})
	_ = w.writeKey(codec.AppendKey(nil, "beta"), []int{300})
	bw.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add(bytes.Repeat([]byte{0xff}, 16))

	const maxFrame = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newSegmentReader(&codec, bufio.NewReader(bytes.NewReader(data)), maxFrame)
		decFrames := 0
		var decErr error
		for {
			keyBytes, batch, err := nextBatch(r)
			if err != nil {
				decErr = err
				break
			}
			if len(keyBytes) == 0 {
				t.Fatal("decoded frame with empty key bytes")
			}
			// A decoded batch must re-encode to a frame the codec accepts,
			// i.e. the reader only ever yields self-consistent batches.
			frame := codec.EncodeBatch(nil, batch)
			if _, err := codec.DecodeBatch(frame); err != nil {
				t.Fatalf("re-encoded batch does not decode: %v", err)
			}
			if decFrames++; decFrames > 1<<20 {
				t.Fatal("reader yielded implausibly many frames")
			}
		}

		// Raw-relay form: the same bytes through nextRaw (the k-way merge's
		// path) must terminate too, and yield headers consistent with the
		// frame they came from. The raw path validates only the frame header,
		// so it may legally read past a value corruption that stops the
		// decoded reader — but a cleanly decodable segment must raw-read
		// cleanly to the same frame count.
		rr := newSegmentReader(&codec, bufio.NewReader(bytes.NewReader(data)), maxFrame)
		rawFrames := 0
		var rawErr error
		for {
			keyBytes, vals, count, err := rr.nextRaw()
			if err != nil {
				rawErr = err
				break
			}
			if len(keyBytes) == 0 {
				t.Fatal("raw frame with empty key bytes")
			}
			if count < 0 {
				t.Fatalf("raw frame with negative count %d", count)
			}
			frame := append([]byte(nil), keyBytes...)
			frame = AppendUvarint(frame, uint64(count))
			frame = append(frame, vals...)
			h, err := codec.parseFrameHeader(frame)
			if err != nil {
				t.Fatalf("reassembled raw frame does not parse: %v", err)
			}
			if h.keyLen != len(keyBytes) || h.count != count {
				t.Fatalf("reassembled header (keyLen %d, count %d) != raw read (keyLen %d, count %d)",
					h.keyLen, h.count, len(keyBytes), count)
			}
			if rawFrames++; rawFrames > 1<<20 {
				t.Fatal("raw reader yielded implausibly many frames")
			}
		}
		if decErr == io.EOF && (rawErr != io.EOF || rawFrames != decFrames) {
			t.Fatalf("decoded read ended cleanly after %d frames, raw read gave %d frames, err %v",
				decFrames, rawFrames, rawErr)
		}
		if rawFrames < decFrames {
			t.Fatalf("raw read stopped after %d frames, decoded read managed %d", rawFrames, decFrames)
		}
	})
}

// FuzzSpillSegmentRoundTrip writes fuzz-derived batches through the segment
// writer and asserts the reader returns them byte-identically and in order.
func FuzzSpillSegmentRoundTrip(f *testing.F) {
	f.Add("key", uint16(3), uint16(2))
	f.Add("", uint16(1), uint16(0))
	f.Add("a longer key with spaces", uint16(40), uint16(9))
	f.Fuzz(func(t *testing.T, key string, count uint16, stride uint16) {
		codec := testCodec()
		values := make([]int, int(count)%512)
		for i := range values {
			values[i] = i * int(stride)
		}
		if len(values) == 0 {
			return // segment writer skips empty value sets by design
		}
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		w := segmentWriter[string, int]{codec: &codec, bw: bw}
		if err := w.writeKey(codec.AppendKey(nil, key), values); err != nil {
			t.Fatalf("writeKey: %v", err)
		}
		bw.Flush()

		r := newSegmentReader(&codec, bufio.NewReader(bytes.NewReader(buf.Bytes())), maxSpillFrame)
		var got []int
		for {
			_, batch, err := nextBatch(r)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("next: %v", err)
			}
			if batch.Key != key {
				t.Fatalf("key %q, want %q", batch.Key, key)
			}
			got = append(got, batch.Values...)
		}
		if len(got) != len(values) {
			t.Fatalf("got %d values, want %d", len(got), len(values))
		}
		for i := range got {
			if got[i] != values[i] {
				t.Fatalf("value %d: got %d want %d", i, got[i], values[i])
			}
		}

		// Raw-relay readback: the same segment through nextRaw must carry the
		// same values, still encoded, with frame counts that sum to the
		// original value count (writeKey may split a large batch across
		// frames; each raw frame must decode independently).
		rr := newSegmentReader(&codec, bufio.NewReader(bytes.NewReader(buf.Bytes())), maxSpillFrame)
		var raw []int
		rawCount := 0
		for {
			keyBytes, vals, count, err := rr.nextRaw()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("nextRaw: %v", err)
			}
			frame := append([]byte(nil), keyBytes...)
			frame = AppendUvarint(frame, uint64(count))
			frame = append(frame, vals...)
			batch, err := codec.DecodeBatch(frame)
			if err != nil {
				t.Fatalf("raw frame does not decode: %v", err)
			}
			if batch.Key != key {
				t.Fatalf("raw key %q, want %q", batch.Key, key)
			}
			if len(batch.Values) != count {
				t.Fatalf("raw frame decoded %d values, header says %d", len(batch.Values), count)
			}
			raw = append(raw, batch.Values...)
			rawCount += count
		}
		if rawCount != len(values) {
			t.Fatalf("raw frame counts sum to %d, want %d", rawCount, len(values))
		}
		for i := range raw {
			if raw[i] != values[i] {
				t.Fatalf("raw value %d: got %d want %d", i, raw[i], values[i])
			}
		}
	})
}
