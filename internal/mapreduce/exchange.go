package mapreduce

import (
	"errors"
	"fmt"
)

// KeyBatch is the unit of communication of the shuffle phase: all values of
// one key produced (and combined) by one map worker. Batching by key keeps the
// in-process path zero-copy — the worker's value slice is handed to the
// shuffle accumulator without copying — and amortizes the key encoding over
// the values on the wire.
type KeyBatch[K comparable, V any] struct {
	Key    K
	Values []V
}

// ByteExchange is the peer-to-peer fabric of a multi-process run, implemented
// by wire transports (internal/transport): it moves opaque frames between the
// peers of one job. The engine runs one sender goroutine per remote peer, the
// only writer toward that destination, and never sends to Self; Send must be
// done with the frame when it returns. Recv is called from a single receiver
// goroutine concurrently with the senders (so Send may apply backpressure
// without risking deadlock) and returns io.EOF after every remote peer has
// closed its sending side. No Send may follow CloseSend.
type ByteExchange interface {
	NumPeers() int
	Self() int
	Send(dst int, frame []byte) error
	CloseSend() error
	Recv() ([]byte, error)
	// WireBytesOut returns the actual bytes written to the transport so far.
	WireBytesOut() int64
}

// FrameCodec serializes the keys and values of one job for a wire transport.
// Distributed algorithms (internal/dseq, internal/dcand) define one codec per
// communicated value type. All Read functions take the buffer and a position
// and return the decoded value with the next position.
type FrameCodec[K comparable, V any] struct {
	AppendKey   func(buf []byte, k K) []byte
	ReadKey     func(data []byte, pos int) (K, int, error)
	AppendValue func(buf []byte, v V) []byte
	ReadValue   func(data []byte, pos int) (V, int, error)
}

// EncodeBatch appends the wire form of one batch: key, value count, values.
func (c FrameCodec[K, V]) EncodeBatch(buf []byte, b KeyBatch[K, V]) []byte {
	buf = c.AppendKey(buf, b.Key)
	buf = AppendUvarint(buf, uint64(len(b.Values)))
	for _, v := range b.Values {
		buf = c.AppendValue(buf, v)
	}
	return buf
}

// DecodeBatch decodes one frame produced by EncodeBatch. Trailing bytes are
// an error. The engine itself never decodes a whole frame — received frames
// stay encoded until the reduce callback — so this is the reference decoder
// the codec tests and fuzz targets check encodings against.
func (c FrameCodec[K, V]) DecodeBatch(frame []byte) (KeyBatch[K, V], error) {
	var b KeyBatch[K, V]
	k, pos, err := c.ReadKey(frame, 0)
	if err != nil {
		return b, err
	}
	b.Key = k
	count, pos, err := ReadUvarint(frame, pos)
	if err != nil {
		return b, err
	}
	// Every value occupies at least one byte, so a count larger than the
	// remaining payload is corrupt (and would otherwise allocate unboundedly).
	if count > uint64(len(frame)-pos) {
		return b, fmt.Errorf("mapreduce: batch claims %d values in %d bytes", count, len(frame)-pos)
	}
	b.Values = make([]V, 0, count)
	for i := uint64(0); i < count; i++ {
		v, np, err := c.ReadValue(frame, pos)
		if err != nil {
			return b, fmt.Errorf("mapreduce: decoding a value of key %v: %w", k, err)
		}
		pos = np
		b.Values = append(b.Values, v)
	}
	if pos != len(frame) {
		return b, fmt.Errorf("mapreduce: %d trailing bytes after batch", len(frame)-pos)
	}
	return b, nil
}

// frameHeader is the parsed prefix of one encoded batch frame: the encoded-key
// length and the value count, located without decoding any value. valsStart is
// the offset of the first encoded value byte. It is the unit the raw shuffle
// spine works in — receive-side grouping, spill segments and the reduce merge
// all operate on these (keyBytes, count, value-bytes) triples and only decode
// values when a fully assembled group reaches the reduce callback.
type frameHeader struct {
	keyLen    int
	count     int
	valsStart int
}

// parseFrameHeader splits one batch frame into its encoded key, value count
// and value-byte region. Values are not decoded; the only validation is the
// structural minimum (every encoded value occupies at least one byte), so a
// frame with corrupt value bytes surfaces its error at decode time.
func (c FrameCodec[K, V]) parseFrameHeader(frame []byte) (frameHeader, error) {
	var h frameHeader
	_, keyLen, err := c.ReadKey(frame, 0)
	if err != nil {
		return h, err
	}
	count, pos, err := ReadUvarint(frame, keyLen)
	if err != nil {
		return h, err
	}
	if count > uint64(len(frame)-pos) {
		return h, fmt.Errorf("mapreduce: batch claims %d values in %d bytes", count, len(frame)-pos)
	}
	if count == 0 && pos != len(frame) {
		return h, fmt.Errorf("mapreduce: %d trailing bytes after empty batch", len(frame)-pos)
	}
	h.keyLen = keyLen
	h.count = int(count)
	h.valsStart = pos
	return h, nil
}

// appendValues decodes count encoded values from raw into vals. The byte
// region must hold exactly count values (the concatenation of one or more
// frames' value regions of the same key).
func (c FrameCodec[K, V]) appendValues(vals []V, raw []byte, count int) ([]V, error) {
	pos := 0
	for i := 0; i < count; i++ {
		v, np, err := c.ReadValue(raw, pos)
		if err != nil {
			return vals, err
		}
		pos = np
		vals = append(vals, v)
	}
	if pos != len(raw) {
		return vals, fmt.Errorf("mapreduce: %d trailing bytes after %d values", len(raw)-pos, count)
	}
	return vals, nil
}

// RecordSize returns the exact encoded size of a single-record batch for
// (k, v). Jobs use it as an honest SizeOf: in-process runs then estimate
// ShuffleBytes with the same encoding a wire transport would use.
func (c FrameCodec[K, V]) RecordSize(k K, v V) int {
	return len(c.AppendKey(nil, k)) + UvarintLen(1) + len(c.AppendValue(nil, v))
}

// ---------------------------------------------------------------------------
// Wire primitives shared by the codecs
// ---------------------------------------------------------------------------

// AppendUvarint appends v in LEB128 form.
func AppendUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

// ReadUvarint decodes a LEB128 varint at pos and returns the value and the
// next position.
func ReadUvarint(data []byte, pos int) (uint64, int, error) {
	var v uint64
	var shift uint
	for {
		if pos >= len(data) {
			return 0, 0, errors.New("mapreduce: truncated varint")
		}
		b := data[pos]
		pos++
		v |= uint64(b&0x7f) << shift
		if b&0x80 == 0 {
			return v, pos, nil
		}
		shift += 7
		if shift > 63 {
			return 0, 0, errors.New("mapreduce: varint overflow")
		}
	}
}

// UvarintLen returns the encoded size of v in bytes.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
