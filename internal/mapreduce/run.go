package mapreduce

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// The shuffle has one encoded form, the sorted run: a sequence of group
// records
//
//	uvarint len | key | uvarint count | values
//
// (len counts the bytes after it; key, count and values are the FrameCodec
// encoding), in non-decreasing order of the encoded key bytes. A payload a
// sender puts on the wire, a received run held in memory and a spill segment
// on disk are all sorted runs, written by one runWriter and read by one
// runReader. A key's values may span consecutive records (a record holds at
// most spillChunkBytes of values plus one value), and a key with no values
// has one zero-count record, so a key the combiner pruned to nothing still
// reaches Reduce.

// runEncoder turns a group map into a sorted run: sort orders the keys by
// encoded key, w writes the records. Each sender owns one, and so does each
// accumulator; the scratch is reused run after run.
type runEncoder[K comparable, V any] struct {
	keys  []keyedRun[K]
	arena []byte
	w     runWriter[K, V]
}

// keyedRun is one key of a group map with its encoded form, the sort key of
// every run. keyBytes aliases the encoder's key arena (off and end locate it
// there while the arena is still growing).
type keyedRun[K comparable] struct {
	keyBytes []byte
	off, end int
	key      K
}

// sort returns the keys of m in encoded-key order. The keys and the arena
// they are encoded into are scratch reused by the next call. Without a codec
// the keys come in map order, unencoded: a job without one has a single run.
func (e *runEncoder[K, V]) sort(codec *FrameCodec[K, V], m map[K][]V) []keyedRun[K] {
	keys, arena := e.keys[:0], e.arena[:0]
	for k := range m {
		off := len(arena)
		if codec != nil {
			arena = codec.AppendKey(arena, k)
		}
		keys = append(keys, keyedRun[K]{off: off, end: len(arena), key: k})
	}
	if codec != nil {
		for i := range keys {
			keys[i].keyBytes = arena[keys[i].off:keys[i].end]
		}
		slices.SortFunc(keys, func(x, y keyedRun[K]) int { return bytes.Compare(x.keyBytes, y.keyBytes) })
	}
	e.keys, e.arena = keys, arena
	return keys
}

// writeRun writes the groups of m as one sorted run, handing it to flush in
// pieces of about spillChunkBytes.
func (e *runEncoder[K, V]) writeRun(codec *FrameCodec[K, V], m map[K][]V, flush func([]byte) error) error {
	e.w.reset(codec, flush)
	for _, kr := range e.sort(codec, m) {
		e.w.openKey(kr.keyBytes)
		if err := e.w.addValues(m[kr.key]); err != nil {
			return err
		}
		if err := e.w.closeKey(); err != nil {
			return err
		}
	}
	return e.w.end()
}

// runWriter appends the records of a sorted run to out and hands out to
// flush whenever it reaches spillChunkBytes, and at end: the sender flushes
// into ByteExchange.Send, a spill into its segment file. A record that
// runReader would refuse (longer than maxRecord) is an error, not an
// unreadable run.
type runWriter[K comparable, V any] struct {
	codec     *FrameCodec[K, V]
	flush     func([]byte) error
	maxRecord int // 0 means maxSpillFrame
	out       []byte
	vals      []byte // encoded values of the open key's next record
	key       []byte // the open key
	count     int    // values in vals
	wrote     bool   // the open key has a record already
}

// reset starts a run that flush receives.
func (w *runWriter[K, V]) reset(codec *FrameCodec[K, V], flush func([]byte) error) {
	w.codec, w.flush, w.out = codec, flush, w.out[:0]
}

// openKey starts the group of key, which must not sort before the last one.
func (w *runWriter[K, V]) openKey(key []byte) {
	w.key, w.vals, w.count, w.wrote = key, w.vals[:0], 0, false
}

// addValues encodes vs into the open group.
func (w *runWriter[K, V]) addValues(vs []V) error {
	for _, v := range vs {
		w.vals = w.codec.AppendValue(w.vals, v)
		w.count++
		if len(w.vals) >= spillChunkBytes {
			if err := w.record(); err != nil {
				return err
			}
		}
	}
	return nil
}

// addEncoded copies count values, still encoded, into the open group.
func (w *runWriter[K, V]) addEncoded(vals []byte, count int) error {
	if len(w.vals) > 0 && len(w.vals)+len(vals) > spillChunkBytes {
		if err := w.record(); err != nil {
			return err
		}
	}
	w.vals = append(w.vals, vals...)
	w.count += count
	return nil
}

// closeKey writes what the open group still holds — a zero-count record if
// the group has no values at all.
func (w *runWriter[K, V]) closeKey() error {
	if w.count == 0 && w.wrote {
		return nil
	}
	return w.record()
}

// record appends the open group's buffered values as one record.
func (w *runWriter[K, V]) record() error {
	bound := w.maxRecord
	if bound <= 0 {
		bound = maxSpillFrame
	}
	n := len(w.key) + UvarintLen(uint64(w.count)) + len(w.vals)
	if n > bound {
		return fmt.Errorf("record of %d encoded bytes exceeds the %d-byte bound", n, bound)
	}
	w.out = AppendUvarint(w.out, uint64(n))
	w.out = append(w.out, w.key...)
	w.out = AppendUvarint(w.out, uint64(w.count))
	w.out = append(w.out, w.vals...)
	w.vals, w.count, w.wrote = w.vals[:0], 0, true
	if len(w.out) < spillChunkBytes {
		return nil
	}
	return w.flushOut()
}

func (w *runWriter[K, V]) flushOut() error {
	if len(w.out) == 0 {
		return nil
	}
	err := w.flush(w.out)
	w.out = w.out[:0]
	return err
}

// end flushes the rest of the run and lets go of flush.
func (w *runWriter[K, V]) end() error {
	err := w.flushOut()
	w.flush, w.key = nil, nil
	return err
}

// record is one group record of a run: the encoded key, the value count and
// the still-encoded values. buf is the segment reader's buffer the record
// aliases (nil for a run held in memory).
type record struct {
	keyBytes []byte
	count    int
	vals     []byte
	buf      []byte
}

// runReader reads the records of one sorted run — a received run held in
// memory (data) or a spill segment (br) — and checks each one: its framing,
// and that its key does not sort before the previous record's. It never
// allocates more than maxFrame per record, so it can be driven by a fuzzer.
type runReader[K comparable, V any] struct {
	codec    *FrameCodec[K, V]
	data     []byte        // a run in memory: the bytes not read yet
	br       *bufio.Reader // a segment
	maxFrame int           // 0 means maxSpillFrame
	last     []byte        // the previous record's key
	free     [][]byte      // segment record buffers handed back by recycle
}

// next returns the next record, or io.EOF at a clean end of the run. A
// record of a segment stays valid until it is passed to recycle, which the
// caller does only after reading the record that follows it.
func (r *runReader[K, V]) next() (record, error) {
	b, err := r.read()
	if err != nil {
		return record{}, err
	}
	rec, err := r.codec.parseRecord(b)
	if err != nil {
		return record{}, err
	}
	if r.last != nil && bytes.Compare(rec.keyBytes, r.last) < 0 {
		return record{}, fmt.Errorf("record key %x sorts before the previous key %x", rec.keyBytes, r.last)
	}
	r.last = rec.keyBytes
	if r.br != nil {
		rec.buf = b
	}
	return rec, nil
}

// read returns the bytes of the next record, without its length prefix.
func (r *runReader[K, V]) read() ([]byte, error) {
	bound := uint64(maxSpillFrame)
	if r.maxFrame > 0 {
		bound = uint64(r.maxFrame)
	}
	if r.br == nil {
		if len(r.data) == 0 {
			return nil, io.EOF
		}
		n, pos, err := ReadUvarint(r.data, 0)
		if err != nil {
			return nil, fmt.Errorf("reading record length: %w", err)
		}
		if n == 0 || n > bound || n > uint64(len(r.data)-pos) {
			return nil, fmt.Errorf("record length %d out of range (max %d, %d bytes left)", n, bound, len(r.data)-pos)
		}
		b := r.data[pos : pos+int(n)]
		r.data = r.data[pos+int(n):]
		return b, nil
	}
	n, err := binary.ReadUvarint(r.br)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("reading record length: %w", err)
	}
	if n == 0 || n > bound {
		return nil, fmt.Errorf("record length %d out of range (max %d)", n, bound)
	}
	var b []byte
	if k := len(r.free); k > 0 {
		b, r.free = r.free[k-1], r.free[:k-1]
	}
	if uint64(cap(b)) < n {
		b = make([]byte, n)
	}
	b = b[:n]
	if _, err := io.ReadFull(r.br, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("reading %d-byte record: %w", n, err)
	}
	return b, nil
}

// recycle hands a segment record's buffer back for reuse by later reads.
func (r *runReader[K, V]) recycle(buf []byte) { r.free = append(r.free, buf) }

// parseRecord splits one record (without its length prefix) into its
// encoded key, value count and value bytes. Values are not decoded; the only
// check is the structural minimum (every encoded value occupies at least one
// byte), so corrupt value bytes surface when the group is decoded.
func (c *FrameCodec[K, V]) parseRecord(b []byte) (record, error) {
	_, keyLen, err := c.ReadKey(b, 0)
	if err != nil {
		return record{}, err
	}
	count, pos, err := ReadUvarint(b, keyLen)
	if err != nil {
		return record{}, err
	}
	if count > uint64(len(b)-pos) {
		return record{}, fmt.Errorf("mapreduce: record claims %d values in %d bytes", count, len(b)-pos)
	}
	if count == 0 && pos != len(b) {
		return record{}, fmt.Errorf("mapreduce: %d trailing bytes after an empty record", len(b)-pos)
	}
	return record{keyBytes: b[:keyLen], count: int(count), vals: b[pos:]}, nil
}
