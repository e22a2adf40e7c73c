package dcand

import (
	"reflect"
	"testing"

	"seqmine/internal/dict"
	"seqmine/internal/mapreduce"
	"seqmine/internal/nfa"
)

// FuzzNFABatchCodec checks the D-CAND shuffle codec: arbitrary frames must
// fail cleanly, decoded frames must re-encode to the same bytes, and no NFA
// that the reducer could not decode gets past the codec — a torn or cyclic
// automaton inside a well-formed frame is a decode error.
func FuzzNFABatchCodec(f *testing.F) {
	c := codec()
	seed := c.EncodeBatch(nil, mapreduce.KeyBatch[dict.ItemID, value]{
		Key: 3,
		Values: []value{
			{data: []byte{0x04, 0x01, 0x02}, weight: 2},
			{data: nil, weight: 1},
		},
	})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0x03, 0x01, 0x01, 0xff})
	f.Add([]byte{0x03, 0x01, 0x01, 0x02, 0x00, 0x01})                               // torn NFA
	f.Add([]byte{0x03, 0x01, 0x01, 0x07, 0x00, 0x01, 0x01, 0x02, 0x01, 0x01, 0x00}) // cyclic NFA
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
			if err := nfa.Validate(v.data); err != nil {
				t.Fatalf("the codec let NFA %x through: %v", v.data, err)
			}
			single := c.EncodeBatch(nil, mapreduce.KeyBatch[dict.ItemID, value]{Key: b.Key, Values: []value{v}})
			if got := recordSize(b.Key, v); got != len(single) {
				t.Fatalf("recordSize = %d, actual encoding = %d bytes", got, len(single))
			}
		}
	})
}
