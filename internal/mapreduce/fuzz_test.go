package mapreduce

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"testing"
)

// FuzzSpillSegmentReader feeds arbitrary bytes to the run reader, as a
// segment and as a run held in memory. Both must terminate with io.EOF or an
// error — never panic, spin, or allocate beyond their record bound — because
// the merge trusts them to fail cleanly on a corrupt or torn run, and they
// must agree record for record.
func FuzzSpillSegmentReader(f *testing.F) {
	codec := testCodec()

	// Seed with a well-formed two-record run and a few mutations.
	valid, err := encodeRun(&codec, 0,
		KeyBatch[string, int]{Key: "beta", Values: []int{300}},
		KeyBatch[string, int]{Key: "alpha", Values: []int{1, 2, 3}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add(bytes.Repeat([]byte{0xff}, 16))

	const maxFrame = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		type read struct {
			records []record
			err     error
		}
		reads := map[string]read{}
		for form, r := range runReaders(&codec, data, maxFrame) {
			var got read
			for {
				rec, err := r.next()
				if err != nil {
					got.err = err
					break
				}
				if len(rec.keyBytes) == 0 {
					t.Fatalf("%s: record with empty key bytes", form)
				}
				if rec.count < 0 || rec.count > len(rec.vals) {
					t.Fatalf("%s: record claims %d values in %d bytes", form, rec.count, len(rec.vals))
				}
				got.records = append(got.records, record{keyBytes: bytes.Clone(rec.keyBytes), count: rec.count, vals: bytes.Clone(rec.vals)})
				if len(got.records) > len(data) {
					t.Fatalf("%s: reader yielded more records than there are bytes", form)
				}
			}
			reads[form] = got
		}
		seg, mem := reads["segment"], reads["memory"]
		if !reflect.DeepEqual(seg.records, mem.records) || (seg.err == io.EOF) != (mem.err == io.EOF) {
			t.Fatalf("segment read %d records (%v), memory read %d (%v)", len(seg.records), seg.err, len(mem.records), mem.err)
		}
		if seg.err != io.EOF {
			return
		}
		// A cleanly read run re-encodes, group by group, to a run that reads
		// back to the same keys and values.
		var batches []KeyBatch[string, int]
		for _, rec := range seg.records {
			k, _, err := codec.ReadKey(rec.keyBytes, 0)
			if err != nil {
				t.Fatalf("a checked record's key does not decode: %v", err)
			}
			vs, err := codec.appendValues(nil, rec.vals, rec.count)
			if err != nil {
				return // corrupt values surface when the group is decoded
			}
			batches = append(batches, KeyBatch[string, int]{Key: k, Values: vs})
		}
		re, err := encodeRun(&codec, 0, batches...)
		if err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		r := &runReader[string, int]{codec: &codec, data: re}
		for _, want := range batches {
			_, got, err := nextBatch(r)
			if err != nil || got.Key != want.Key || len(got.Values) != len(want.Values) {
				t.Fatalf("re-encoded run reads %+v, %v; want %+v", got, err, want)
			}
		}
	})
}

// FuzzSpillSegmentRoundTrip writes fuzz-derived groups through the run
// writer and asserts both readers return them value for value: a group over
// spillChunkBytes spans several records of the same key, and a group without
// values is one zero-count record.
func FuzzSpillSegmentRoundTrip(f *testing.F) {
	f.Add("key", uint16(3), uint16(2))
	f.Add("", uint16(1), uint16(0))
	f.Add("a longer key with spaces", uint16(40), uint16(9))
	f.Add("empty", uint16(0), uint16(1))
	f.Fuzz(func(t *testing.T, key string, count uint16, stride uint16) {
		codec := testCodec()
		values := make([]int, int(count)%512)
		for i := range values {
			values[i] = i * int(stride)
		}
		data, err := encodeRun(&codec, 0, KeyBatch[string, int]{Key: key, Values: values})
		if err != nil {
			t.Fatalf("encodeRun: %v", err)
		}
		for form, r := range runReaders(&codec, data, maxSpillFrame) {
			got, records := []int{}, 0
			for {
				_, batch, err := nextBatch(r)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("%s: next: %v", form, err)
				}
				if batch.Key != key {
					t.Fatalf("%s: key %q, want %q", form, batch.Key, key)
				}
				got = append(got, batch.Values...)
				records++
			}
			if records == 0 || (len(values) == 0 && records != 1) {
				t.Fatalf("%s: %d records for %d values", form, records, len(values))
			}
			if !reflect.DeepEqual(got, append([]int{}, values...)) {
				t.Fatalf("%s: got %v, want %v", form, got, values)
			}
		}
	})
}

// FuzzReceivedRun feeds arbitrary bytes through what a received payload
// meets: the arrival check, then — twice over, as two runs — the k-way
// merge that feeds reduce. Each input must end in an error or in groups
// delivered once each, in encoded-key order, with every value the records
// claim; it must never panic or allocate without bound.
func FuzzReceivedRun(f *testing.F) {
	codec := testCodec()
	valid, err := encodeRun(&codec, 0,
		KeyBatch[string, int]{Key: "beta"},
		KeyBatch[string, int]{Key: "alpha", Values: []int{1, 2, 3}},
		KeyBatch[string, int]{Key: "gamma", Values: []int{300}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(append(valid[len(valid)/2:], valid[:len(valid)/2]...))
	f.Add([]byte{0x03, 0x01, 'k', 0x09}) // a count larger than its bytes
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		acc := newShuffleAccumulator[string, int](context.Background(), ShuffleConfig{}, nil, &codec, nil)
		defer acc.release()
		for range 2 {
			if err := acc.addRun(data); err != nil {
				return
			}
		}
		claimed := map[string]int{}
		r := &runReader[string, int]{codec: &codec, data: data}
		for {
			rec, err := r.next()
			if err != nil {
				break
			}
			if k, _, _ := codec.ReadKey(rec.keyBytes, 0); !bytes.Equal(codec.AppendKey(nil, k), rec.keyBytes) {
				return // groups are keyed by their bytes: a non-canonical key is a key of its own
			}
			claimed[string(rec.keyBytes)] += 2 * rec.count
		}
		var last []byte
		delivered := 0
		err := acc.feed(func(k string, vs []int, release func()) error {
			defer release()
			kb := codec.AppendKey(nil, k)
			if last != nil && bytes.Compare(kb, last) <= 0 {
				t.Fatalf("key %x delivered after %x", kb, last)
			}
			last = kb
			if len(vs) != claimed[string(kb)] {
				t.Fatalf("key %q: %d values delivered, the records claim %d", k, len(vs), claimed[string(kb)])
			}
			delivered++
			return nil
		})
		if err == nil && delivered != len(claimed) {
			t.Fatalf("%d groups delivered, the run holds %d keys", delivered, len(claimed))
		}
	})
}
