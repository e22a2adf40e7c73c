package dseq

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"seqmine/internal/dict"
	"seqmine/internal/mapreduce"
)

// FuzzSequenceBatchCodec checks the D-SEQ shuffle codec on whole records, as
// the reducer decodes them (decodeRecord): arbitrary records must fail
// cleanly, and decoded records must re-encode to the same values.
func FuzzSequenceBatchCodec(f *testing.F) {
	c := codec()
	f.Add(encodeRecord(c, 7, []value{{Items: []dict.ItemID{1, 2, 300}, Weight: 4}, {Items: nil, Weight: 1}}))
	f.Add([]byte{})
	f.Add([]byte{0x07, 0x01, 0x01, 0xff})
	d := new(groupDecoder)
	f.Fuzz(func(t *testing.T, frame []byte) {
		defer d.Release(false)
		k, vs, err := decodeRecord(c, d, frame)
		if err != nil {
			return
		}
		// A decodable record must survive a re-encode/re-decode round trip
		// structurally (byte equality would be too strong: the reader
		// tolerates non-canonical varints).
		re := encodeRecord(c, k, vs)
		k2, vs2, err := decodeRecord(c, d, re)
		if err != nil {
			t.Fatalf("re-decode failed: %v (frame %x)", err, re)
		}
		if k2 != k || !reflect.DeepEqual(vs2, vs) {
			t.Fatalf("round trip mismatch:\n got %d %+v\nwant %d %+v", k2, vs2, k, vs)
		}
		// The honest SizeOf must equal the actual encoding of each record.
		for _, v := range vs {
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

// decodeRecord decodes the bytes of one record through d, the group decoder
// the engine lends D-SEQ's groups from. Trailing bytes are an error.
func decodeRecord(c mapreduce.FrameCodec[dict.ItemID, value], d *groupDecoder, frame []byte) (dict.ItemID, []value, error) {
	k, pos, err := c.ReadKey(frame, 0)
	if err != nil {
		return k, nil, err
	}
	count, pos, err := mapreduce.ReadUvarint(frame, pos)
	if err != nil {
		return k, nil, err
	}
	if count > uint64(len(frame)-pos) {
		return k, nil, fmt.Errorf("%d sequences claimed in %d bytes", count, len(frame)-pos)
	}
	vs, err := d.Decode(nil, frame[pos:], int(count))
	return k, vs, err
}

// FuzzSequenceGroupDecode checks the group decoder against the codec's
// ReadValue: on arbitrary bytes and counts, Decode accepts exactly what count
// calls of ReadValue accept when they consume all of raw, with equal values.
// One decoder serves every input, so each one decodes into the arrays of the
// inputs before it; a second region in the same loan must leave the first
// one's values intact, and Release must hand the values to nobody else.
func FuzzSequenceGroupDecode(f *testing.F) {
	c := codec()
	var seed []byte
	for _, v := range []value{{Items: []dict.ItemID{1, 2, 300}, Weight: 4}, {Items: nil, Weight: 1}, {Items: []dict.ItemID{7}, Weight: 2}} {
		seed = c.AppendValue(seed, v)
	}
	f.Add(seed, uint16(3))
	f.Add(seed, uint16(2))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0x01, 0x02, 0x05}, uint16(1))
	f.Add([]byte{0x01, 0x00}, uint16(0))
	d := new(groupDecoder)
	f.Fuzz(func(t *testing.T, raw []byte, count uint16) {
		var want []value
		pos, ok := 0, true
		for i := 0; i < int(count) && ok; i++ {
			v, np, err := c.ReadValue(raw, pos)
			if ok = err == nil; ok {
				want, pos = append(want, v), np
			}
		}
		ok = ok && pos == len(raw)

		lead := value{Items: []dict.ItemID{9}, Weight: 9}
		got, err := d.Decode([]value{lead}, raw, int(count))
		if (err == nil) != ok {
			t.Fatalf("Decode(%x, %d): err %v, ReadValue accepts: %v", raw, count, err, ok)
		}
		if !ok {
			d.Release(false)
			return
		}
		if again, err := d.Decode(got, raw, int(count)); err != nil {
			t.Fatalf("a second region of the same group failed: %v", err)
		} else {
			got = again
		}
		if len(got) != 1+2*len(want) || !equalValue(got[0], lead) {
			t.Fatalf("Decode kept %d values with %v first, want %d after %v", len(got), got[0], 1+2*len(want), lead)
		}
		for i, v := range append(want, want...) {
			if !equalValue(got[1+i], v) {
				t.Fatalf("value %d: Decode %v, ReadValue %v", i, got[1+i], v)
			}
		}
		d.Release(true)
		for _, v := range got[1:] {
			for _, w := range v.Items {
				if w != poisonItem {
					t.Fatalf("released item %d survived poisoning", w)
				}
			}
		}
	})
}

func equalValue(a, b value) bool {
	return a.Weight == b.Weight && slices.Equal(a.Items, b.Items)
}
