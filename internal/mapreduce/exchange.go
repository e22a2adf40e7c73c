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
// peers of one job. Every frame the engine sends is one sorted run (run.go).
// The engine runs one sender goroutine per remote peer, the only writer
// toward that destination, and never sends to Self; Send must be done with
// the frame when it returns. Recv is called from a single receiver goroutine
// concurrently with the senders (so Send may apply backpressure without
// risking deadlock) and returns io.EOF after every remote peer has closed its
// sending side; the frames it returns belong to the engine, which keeps them
// as received runs. No Send may follow CloseSend.
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
// and return the decoded value with the next position. A decoded key or value
// must not alias data: the engine reuses the buffers it decodes from.
type FrameCodec[K comparable, V any] struct {
	AppendKey   func(buf []byte, k K) []byte
	ReadKey     func(data []byte, pos int) (K, int, error)
	AppendValue func(buf []byte, v V) []byte
	ReadValue   func(data []byte, pos int) (V, int, error)
	// NewGroupDecoder (optional) returns a decoder for whole groups, whose
	// values may reference storage the decoder recycles. The engine keeps one
	// per group it has lent to Job.Reduce. Without it, groups are decoded by
	// ReadValue, one value at a time.
	NewGroupDecoder func() GroupDecoder[V]
}

// GroupDecoder decodes the encoded values of key groups into storage it owns
// and reuses: a decoded group is lent to Job.Reduce, and Release takes its
// storage back once Reduce has returned.
type GroupDecoder[V any] interface {
	// Decode appends the count values encoded back to back in raw to vals.
	// It accepts exactly what count calls of FrameCodec.ReadValue accept when
	// they consume all of raw, and decodes equal values.
	Decode(vals []V, raw []byte, count int) ([]V, error)
	// Release ends the loan of every value decoded since the last Release,
	// so that later Decode calls may overwrite their storage. With poison set,
	// Release overwrites that storage right away (see PoisonOnRelease).
	Release(poison bool)
}

// groupDecoder returns the codec's group decoder, or one that calls ReadValue
// per value and owns no storage.
func (c *FrameCodec[K, V]) groupDecoder() GroupDecoder[V] {
	if c.NewGroupDecoder != nil {
		return c.NewGroupDecoder()
	}
	return valueDecoder[K, V]{c}
}

type valueDecoder[K comparable, V any] struct{ c *FrameCodec[K, V] }

func (d valueDecoder[K, V]) Decode(vals []V, raw []byte, count int) ([]V, error) {
	return d.c.appendValues(vals, raw, count)
}

func (valueDecoder[K, V]) Release(bool) {}

// appendValues decodes count encoded values from raw into vals. The byte
// region must hold exactly count values.
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
