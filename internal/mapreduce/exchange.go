package mapreduce

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// KeyBatch is the unit of communication of the shuffle phase: all values of
// one key produced (and combined) by one map worker. Batching by key keeps
// the in-process loopback zero-copy — the worker's value slice is handed to
// the reducer side without copying — and amortizes the key encoding over the
// values on wire transports.
type KeyBatch[K comparable, V any] struct {
	Key    K
	Values []V
}

// Exchange routes the shuffle batches of one BSP job between peers. A peer is
// one participant of the job — the single local process for the in-process
// loopback, or one of N processes connected by a wire transport. The engine
// sends every combined batch to the peer that owns the batch's key and
// reduces exactly the keys it receives.
//
// Send is safe for concurrent use. Recv is called from a single receiver
// goroutine that runs concurrently with the senders (an implementation may
// therefore apply backpressure in Send without risking deadlock). RunExchange
// never sends to Self — self-destined batches are accumulated locally by the
// engine (and bounded by its spill buffer, see ShuffleConfig) — so wire
// implementations may reject dst == Self.
type Exchange[K comparable, V any] interface {
	// NumPeers returns the number of peers participating in the exchange.
	NumPeers() int
	// Self returns this peer's index in [0, NumPeers).
	Self() int
	// Send routes one batch to peer dst.
	Send(dst int, b KeyBatch[K, V]) error
	// CloseSend flushes outstanding batches and signals end-of-stream to
	// every peer, including this one. No Send may follow CloseSend.
	CloseSend() error
	// Recv returns the next batch destined for this peer. It returns io.EOF
	// after every peer (including this one) has closed its sending side.
	Recv() (KeyBatch[K, V], error)
}

// WireMetrics is implemented by exchanges that move real bytes (wire
// transports). When the engine detects it, Metrics.ShuffleBytes reports the
// actual bytes written to the transport instead of the SizeOf estimate.
type WireMetrics interface {
	// WireBytesOut returns the total bytes this peer has written to the
	// transport so far (frames and protocol overhead; self-deliveries, which
	// never touch the transport, are excluded).
	WireBytesOut() int64
}

// ---------------------------------------------------------------------------
// In-process loopback
// ---------------------------------------------------------------------------

// loopbackMsg is either a batch or an end-of-stream marker from one sender.
type loopbackMsg[K comparable, V any] struct {
	batch KeyBatch[K, V]
	eos   bool
}

// loopbackPeer is one endpoint of an in-memory exchange group. Batches are
// passed by reference (zero-copy).
type loopbackPeer[K comparable, V any] struct {
	self    int
	inboxes []chan loopbackMsg[K, V]
	open    int // senders that have not yet delivered eos to us
	closed  bool
}

// NewLoopbackGroup returns n exchanges connected in memory: a batch sent to
// peer i is received by group[i]. With n == 1 this is the default in-process
// shuffle of Run. The group applies bounded buffering, so senders experience
// the same backpressure discipline as on a wire transport.
func NewLoopbackGroup[K comparable, V any](n int) []Exchange[K, V] {
	if n <= 0 {
		n = 1
	}
	inboxes := make([]chan loopbackMsg[K, V], n)
	for i := range inboxes {
		inboxes[i] = make(chan loopbackMsg[K, V], 256)
	}
	group := make([]Exchange[K, V], n)
	for i := range group {
		group[i] = &loopbackPeer[K, V]{self: i, inboxes: inboxes, open: n}
	}
	return group
}

func (l *loopbackPeer[K, V]) NumPeers() int { return len(l.inboxes) }
func (l *loopbackPeer[K, V]) Self() int     { return l.self }

func (l *loopbackPeer[K, V]) Send(dst int, b KeyBatch[K, V]) error {
	if dst < 0 || dst >= len(l.inboxes) {
		return fmt.Errorf("mapreduce: send to unknown peer %d of %d", dst, len(l.inboxes))
	}
	l.inboxes[dst] <- loopbackMsg[K, V]{batch: b}
	return nil
}

func (l *loopbackPeer[K, V]) CloseSend() error {
	if l.closed {
		return errors.New("mapreduce: CloseSend called twice")
	}
	l.closed = true
	for _, inbox := range l.inboxes {
		inbox <- loopbackMsg[K, V]{eos: true}
	}
	return nil
}

func (l *loopbackPeer[K, V]) Recv() (KeyBatch[K, V], error) {
	for l.open > 0 {
		msg := <-l.inboxes[l.self]
		if msg.eos {
			l.open--
			continue
		}
		return msg.batch, nil
	}
	return KeyBatch[K, V]{}, io.EOF
}

// ---------------------------------------------------------------------------
// Frame codec and wire adapter
// ---------------------------------------------------------------------------

// ByteExchange is the peer-to-peer fabric implemented by wire transports
// (internal/transport): it moves opaque frames between peers. Send and Recv
// follow the same contract as Exchange. Frames sent to Self never reach a
// ByteExchange — the frame adapter short-circuits them in memory.
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
// an error.
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

// frameExchange adapts a ByteExchange to an Exchange[K, V] with a FrameCodec.
// Self-destined batches never reach it: the engine accumulates them locally
// (bounded by its spill buffer, see ShuffleConfig), which replaced the
// unbounded self-delivery queue this adapter used to keep — local data stays
// local without a queue that could wedge senders against the receiver or
// grow without limit. Backpressure is a remote concern only and is applied
// by the transport through TCP flow control.
//
// Encoding state is per destination peer, so the streaming shuffle's
// dedicated sender goroutines (one per peer) encode and send concurrently
// without contending on a shared buffer; the transport below serializes
// frames per connection.
type frameExchange[K comparable, V any] struct {
	bx    ByteExchange
	codec FrameCodec[K, V]
	peers []peerEncoder
}

// peerEncoder is one destination's serialized encode scratch state.
type peerEncoder struct {
	mu  sync.Mutex
	buf []byte
}

// NewFrameExchange wires a codec to a byte transport. The returned exchange
// implements WireMetrics, so RunExchange reports true wire bytes.
func NewFrameExchange[K comparable, V any](bx ByteExchange, codec FrameCodec[K, V]) Exchange[K, V] {
	return &frameExchange[K, V]{bx: bx, codec: codec, peers: make([]peerEncoder, bx.NumPeers())}
}

func (e *frameExchange[K, V]) NumPeers() int       { return e.bx.NumPeers() }
func (e *frameExchange[K, V]) Self() int           { return e.bx.Self() }
func (e *frameExchange[K, V]) WireBytesOut() int64 { return e.bx.WireBytesOut() }

func (e *frameExchange[K, V]) Send(dst int, b KeyBatch[K, V]) error {
	if dst == e.bx.Self() {
		return errors.New("mapreduce: self-delivery must be short-circuited by the caller")
	}
	if dst < 0 || dst >= len(e.peers) {
		return fmt.Errorf("mapreduce: send to unknown peer %d of %d", dst, len(e.peers))
	}
	pe := &e.peers[dst]
	pe.mu.Lock()
	pe.buf = e.codec.EncodeBatch(pe.buf[:0], b)
	err := e.bx.Send(dst, pe.buf)
	pe.mu.Unlock()
	return err
}

func (e *frameExchange[K, V]) CloseSend() error { return e.bx.CloseSend() }

func (e *frameExchange[K, V]) Recv() (KeyBatch[K, V], error) {
	frame, err := e.bx.Recv()
	if err != nil {
		return KeyBatch[K, V]{}, err // io.EOF once every remote peer closed
	}
	return e.codec.DecodeBatch(frame)
}

// FrameSource is implemented by exchanges that can surface received batches
// as raw encoded frames. When the engine detects it (and the job has a
// codec), the receive side skips DecodeBatch entirely: frames are grouped by
// their encoded-key prefix and values stay encoded until the reduce callback.
type FrameSource interface {
	// RecvFrame returns the next batch frame destined for this peer, in
	// EncodeBatch wire form. It returns io.EOF after every peer has closed
	// its sending side. The returned slice is owned by the caller.
	RecvFrame() ([]byte, error)
}

func (e *frameExchange[K, V]) RecvFrame() ([]byte, error) { return e.bx.Recv() }

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
