package dseq

import (
	"reflect"
	"testing"

	"seqmine/internal/dict"
	"seqmine/internal/mapreduce"
)

// FuzzSequenceBatchCodec checks the D-SEQ shuffle codec: arbitrary frames
// must fail cleanly, and decoded frames must re-encode to the same bytes.
func FuzzSequenceBatchCodec(f *testing.F) {
	c := codec()
	seed := c.EncodeBatch(nil, mapreduce.KeyBatch[dict.ItemID, value]{
		Key: 7,
		Values: []value{
			{Items: []dict.ItemID{1, 2, 300}, Weight: 4},
			{Items: nil, Weight: 1},
		},
	})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0x07, 0x01, 0x01, 0xff})
	f.Fuzz(func(t *testing.T, frame []byte) {
		b, err := c.DecodeBatch(frame)
		if err != nil {
			return
		}
		// A decodable frame must survive a re-encode/re-decode round trip
		// structurally (byte equality would be too strong: the reader
		// tolerates non-canonical varints).
		re := c.EncodeBatch(nil, b)
		b2, err := c.DecodeBatch(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v (frame %x)", err, re)
		}
		if !reflect.DeepEqual(b, b2) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", b2, b)
		}
		// The honest SizeOf must equal the actual encoding of each record.
		for _, v := range b.Values {
			single := c.EncodeBatch(nil, mapreduce.KeyBatch[dict.ItemID, value]{Key: b.Key, Values: []value{v}})
			if got := recordSize(b.Key, v); got != len(single) {
				t.Fatalf("recordSize = %d, actual encoding = %d bytes", got, len(single))
			}
		}
	})
}
