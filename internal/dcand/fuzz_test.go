package dcand

import (
	"fmt"
	"reflect"
	"testing"

	"seqmine/internal/dict"
	"seqmine/internal/mapreduce"
	"seqmine/internal/nfa"
)

// FuzzNFABatchCodec checks the D-CAND shuffle codec on whole records
// (decodeRecord): arbitrary records must fail cleanly, decoded records must
// re-encode to the same values, and no NFA that the reducer could not decode
// gets past the codec — a torn or cyclic automaton inside a well-formed
// record is a decode error.
func FuzzNFABatchCodec(f *testing.F) {
	c := codec()
	f.Add(encodeRecord(c, 3, []value{{data: []byte{0x04, 0x01, 0x02}, weight: 2}, {data: nil, weight: 1}}))
	f.Add([]byte{})
	f.Add([]byte{0x03, 0x01, 0x01, 0xff})
	f.Add([]byte{0x03, 0x01, 0x01, 0x02, 0x00, 0x01})                               // torn NFA
	f.Add([]byte{0x03, 0x01, 0x01, 0x07, 0x00, 0x01, 0x01, 0x02, 0x01, 0x01, 0x00}) // cyclic NFA
	f.Fuzz(func(t *testing.T, frame []byte) {
		k, vs, err := decodeRecord(c, frame)
		if err != nil {
			return
		}
		// A decodable record must survive a re-encode/re-decode round trip
		// structurally (byte equality would be too strong: the reader
		// tolerates non-canonical varints).
		re := encodeRecord(c, k, vs)
		k2, vs2, err := decodeRecord(c, re)
		if err != nil {
			t.Fatalf("re-decode failed: %v (frame %x)", err, re)
		}
		if k2 != k || !reflect.DeepEqual(vs2, vs) {
			t.Fatalf("round trip mismatch:\n got %d %+v\nwant %d %+v", k2, vs2, k, vs)
		}
		// The honest SizeOf must equal the actual encoding of each record.
		for _, v := range vs {
			if err := nfa.Validate(v.data); err != nil {
				t.Fatalf("the codec let NFA %x through: %v", v.data, err)
			}
			single := encodeRecord(c, k, []value{v})
			if got := recordSize(k, v); got != len(single) {
				t.Fatalf("recordSize = %d, actual encoding = %d bytes", got, len(single))
			}
		}
	})
}

// encodeRecord returns the bytes of one shuffle record of key k after its
// length prefix: the key, the number of values, the values.
func encodeRecord(c mapreduce.FrameCodec[dict.ItemID, value], k dict.ItemID, vs []value) []byte {
	buf := mapreduce.AppendUvarint(c.AppendKey(nil, k), uint64(len(vs)))
	for _, v := range vs {
		buf = c.AppendValue(buf, v)
	}
	return buf
}

// decodeRecord decodes the bytes of one record with the codec's ReadKey and
// ReadValue. Trailing bytes are an error.
func decodeRecord(c mapreduce.FrameCodec[dict.ItemID, value], frame []byte) (dict.ItemID, []value, error) {
	k, pos, err := c.ReadKey(frame, 0)
	if err != nil {
		return k, nil, err
	}
	count, pos, err := mapreduce.ReadUvarint(frame, pos)
	var vs []value
	for i := uint64(0); err == nil && i < count && pos < len(frame); i++ {
		var v value
		if v, pos, err = c.ReadValue(frame, pos); err == nil {
			vs = append(vs, v)
		}
	}
	if err == nil && (uint64(len(vs)) != count || pos != len(frame)) {
		err = fmt.Errorf("%d of %d values decoded, %d trailing bytes", len(vs), count, len(frame)-pos)
	}
	return k, vs, err
}
