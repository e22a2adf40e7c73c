package mapreduce

import (
	"bufio"
	"bytes"
	"compress/flate"
	"container/heap"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"seqmine/internal/obs"
)

// ShuffleConfig bounds the memory footprint of the shuffle. SpillThreshold
// bounds the receive side (spilling what exceeds it to disk); SendBufferBytes
// bounds the map-side send buffers. The zero value keeps the whole shuffle in
// memory and sends nothing before the map phase has ended. This is the one
// declaration of the shuffle knobs: internal/plan embeds it by value into the
// query plan, so the JSON tags are the field names of POST /mine and of the
// worker job spec.
type ShuffleConfig struct {
	// SpillThreshold is the number of buffered shuffle bytes a peer holds in
	// memory before it spills a sorted run to a temp-file segment; <= 0
	// disables spilling. Sizes are measured with the job's SizeOf function
	// (or the codec's exact record size when SizeOf is nil), i.e. in wire
	// bytes, not Go heap bytes.
	SpillThreshold int64 `json:"spill_threshold_bytes,omitempty"`
	// SpillTmpDir is the directory spill segments are created under; empty
	// uses the system temp directory. Each job creates (and removes) its own
	// subdirectory. It names a path on this process's filesystem, so it is
	// never serialized: a cluster worker spills into its own -spill-dir.
	SpillTmpDir string `json:"-"`
	// SendBufferBytes is the capacity of a peer's send buffer toward one
	// destination, measured like SpillThreshold. When > 0 the shuffle streams:
	// a map worker whose share of the buffer is full combines it and hands it
	// to the destination's sender while mapping continues, so network
	// transfer overlaps map compute; when the sender is still busy and its
	// short queue is full, the hand-off blocks (backpressure), so a slow peer
	// never grows sender memory. Requires the job to carry a Codec. <= 0 means
	// the buffers never fill: everything is handed off once, after the map
	// phase (barrier mode).
	SendBufferBytes int64 `json:"send_buffer_bytes,omitempty"`
	// CompressSpill compresses spill segments with DEFLATE.
	// Metrics.SpilledBytes then reports the compressed on-disk size.
	CompressSpill bool `json:"compress_spill,omitempty"`
}

// Enabled reports whether the configuration asks for spilling.
func (c ShuffleConfig) Enabled() bool { return c.SpillThreshold > 0 }

// Streaming reports whether the send buffers are bounded, i.e. whether data
// leaves a peer while it still maps.
func (c ShuffleConfig) Streaming() bool { return c.SendBufferBytes > 0 }

const (
	// maxSpillFrame bounds one segment frame on read-back (corruption
	// guard). It matches the TCP transport's default MaxFrame: a record too
	// large to spill would not fit the wire shuffle either. The writer
	// enforces it up front — a single encoded record near this size is
	// rejected with a clear error instead of producing an unreadable
	// segment.
	maxSpillFrame = 64 << 20
	// spillChunkBytes caps the encoded values of a single segment frame, so
	// one hot key spanning a whole run still produces bounded frames (a
	// frame holds at most spillChunkBytes of already-buffered values plus
	// one record).
	spillChunkBytes = 1 << 20
)

// shuffleAccumulator gathers the key batches a peer receives (or owns
// itself) during the shuffle. Below the spill threshold it is a plain
// in-memory group-by; past it, the current run is sorted by encoded key and
// written to a temp-file segment in the FrameCodec wire encoding, and the
// reduce phase streams a k-way merge over the segments plus the final
// in-memory run. add and addRaw are safe for concurrent use (the map workers'
// hand-offs and the receiver both feed it); merge and cleanup are called after the
// shuffle barrier, single-goroutine.
//
// The accumulator holds two kinds of runs. Decoded batches (the ones this
// peer owns itself, which are zero-copy Go values) group into mem. Encoded
// frames from a wire exchange group into raw, keyed by the frame's
// encoded-key prefix: the value bytes of equal-key frames are concatenated
// without decoding a single record, and stay encoded through spilling and
// the k-way merge until a fully assembled group reaches the reduce
// callback. A key may legitimately appear in both runs (a peer owns part of
// its own partition); merge and walk reunite them.
type shuffleAccumulator[K comparable, V any] struct {
	codec  *FrameCodec[K, V]
	cfg    ShuffleConfig
	sizeOf func(K, V) int
	// combine, when non-nil, is the job's combiner. The accumulator applies
	// it to the decoded run before spilling (cross-flush external combine:
	// equal keys re-delivered across buffers collapse before paying disk);
	// the reduce loop applies it once more on fully assembled groups.
	combine func(K, []V) []V

	// ctx carries the job's trace recorder (spill spans); segHist observes
	// segment sizes. Both are no-ops when observability is not wired up.
	ctx     context.Context
	segHist *obs.Histogram

	mu       sync.Mutex
	mem      map[K][]V
	raw      map[string]*rawGroup
	memBytes int64
	dir      string // lazily created spill directory, removed by cleanup
	segs     []*os.File

	spilledBytes int64
	buf          []byte // scratch encode buffer, reused across spills
}

// rawGroup accumulates the still-encoded values one peer received for one
// key: the value regions of every frame carrying that key, concatenated in
// arrival order, plus the frame boundaries (spilling re-frames along them so
// a segment frame never has to split an encoded value).
type rawGroup struct {
	vals   []byte
	chunks []rawChunk
}

// rawChunk is one received frame's contribution to a rawGroup: count values
// ending at offset end of vals (the region starts at the previous chunk's
// end).
type rawChunk struct {
	end   int
	count int
}

// newShuffleAccumulator builds the accumulator for one Run call.
// codec may be nil when cfg does not enable spilling; ctx and reg carry the
// optional observability state (trace recorder and metric registry).
func newShuffleAccumulator[K comparable, V any](ctx context.Context, cfg ShuffleConfig, reg *obs.Registry, codec *FrameCodec[K, V], sizeOf func(K, V) int) *shuffleAccumulator[K, V] {
	if ctx == nil {
		ctx = context.Background()
	}
	a := &shuffleAccumulator[K, V]{codec: codec, cfg: cfg, mem: make(map[K][]V), ctx: ctx,
		// Nil registry → nil histogram → no-op observes.
		segHist: reg.Histogram("seqmine_spill_segment_bytes",
			"Size in bytes of shuffle spill segments written to disk.", obs.ByteBuckets)}
	if cfg.Enabled() {
		if sizeOf == nil {
			sizeOf = codec.RecordSize
		}
		a.sizeOf = sizeOf
	}
	return a
}

// add appends one batch to the current run, spilling it when the run exceeds
// the threshold.
func (a *shuffleAccumulator[K, V]) add(b KeyBatch[K, V]) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.mem[b.Key] = append(a.mem[b.Key], b.Values...)
	if !a.cfg.Enabled() {
		return nil
	}
	for _, v := range b.Values {
		a.memBytes += int64(a.sizeOf(b.Key, v))
	}
	if a.memBytes < a.cfg.SpillThreshold {
		return nil
	}
	return a.spillLocked()
}

// addRaw appends one received wire frame to the current run without decoding
// it: the frame's value bytes are appended to the group of its encoded-key
// prefix. The group lookup allocates only on a key's first appearance (the
// string conversion for the lookup itself does not escape). Buffered raw
// bytes count toward the spill threshold at their exact wire size.
func (a *shuffleAccumulator[K, V]) addRaw(frame []byte) error {
	h, err := a.codec.parseFrameHeader(frame)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.raw == nil {
		a.raw = make(map[string]*rawGroup)
	}
	g, ok := a.raw[string(frame[:h.keyLen])]
	if !ok {
		g = &rawGroup{}
		a.raw[string(frame[:h.keyLen])] = g
	}
	g.vals = append(g.vals, frame[h.valsStart:]...)
	g.chunks = append(g.chunks, rawChunk{end: len(g.vals), count: h.count})
	if !a.cfg.Enabled() {
		return nil
	}
	a.memBytes += int64(len(frame))
	if a.memBytes < a.cfg.SpillThreshold {
		return nil
	}
	return a.spillLocked()
}

// spillLocked writes the current run — the decoded and raw groups
// interleaved in encoded-key order — as one length-prefixed segment file and
// resets the run. The decoded groups are combined first when the job has a
// combiner (equal keys buffered across several adds collapse before paying
// disk); raw groups are written as straight byte copies along their received
// frame boundaries, coalesced up to the chunk bound.
func (a *shuffleAccumulator[K, V]) spillLocked() error {
	if len(a.mem) == 0 && len(a.raw) == 0 {
		return nil
	}
	start := time.Now()
	if a.dir == "" {
		dir, err := os.MkdirTemp(a.cfg.SpillTmpDir, "seqmine-spill-")
		if err != nil {
			return fmt.Errorf("mapreduce: creating spill directory: %w", err)
		}
		a.dir = dir
	}
	memKeys := a.sortedRun()
	rawKeys := a.sortedRawKeys()

	sink, err := newSegmentSink(a.dir, len(a.segs), a.cfg.CompressSpill)
	if err != nil {
		return err
	}
	w := segmentWriter[K, V]{codec: a.codec, bw: sink.bw, vbuf: a.buf}
	mi, ri := 0, 0
	for mi < len(memKeys) || ri < len(rawKeys) {
		// Two-pointer merge of the sorted runs. A key present in both is
		// written as consecutive frames under the same key bytes, which the
		// reduce merge reunites like any duplicate key.
		writeMem, writeRaw := ri >= len(rawKeys), mi >= len(memKeys)
		if !writeMem && !writeRaw {
			c := bytes.Compare(memKeys[mi].keyBytes, []byte(rawKeys[ri]))
			writeMem, writeRaw = c <= 0, c >= 0
		}
		if writeMem {
			kr := memKeys[mi]
			mi++
			vs := a.mem[kr.key]
			if a.combine != nil && len(vs) > 1 {
				vs = a.combine(kr.key, vs)
			}
			if err := w.writeKey(kr.keyBytes, vs); err != nil {
				sink.abort()
				return fmt.Errorf("mapreduce: writing spill segment: %w", err)
			}
		}
		if writeRaw {
			ks := rawKeys[ri]
			ri++
			if err := w.writeRawGroup(ks, a.raw[ks]); err != nil {
				sink.abort()
				return fmt.Errorf("mapreduce: writing spill segment: %w", err)
			}
		}
	}
	if err := sink.finish(); err != nil {
		return err
	}
	a.segs = append(a.segs, sink.f)
	a.spilledBytes += sink.cw.n
	a.segHist.Observe(float64(sink.cw.n))
	obs.Observe(a.ctx, "mapreduce.spill", start, time.Since(start),
		obs.Int("bytes", sink.cw.n), obs.Int("segment", int64(len(a.segs)-1)))
	a.mem = make(map[K][]V, len(a.mem))
	if a.raw != nil {
		a.raw = make(map[string]*rawGroup, len(a.raw))
	}
	a.memBytes = 0
	a.buf = w.vbuf // keep the grown scratch buffer for the next spill
	return nil
}

// sortedRawKeys returns the raw run's encoded keys in byte order (string
// comparison and encoded-byte comparison agree).
func (a *shuffleAccumulator[K, V]) sortedRawKeys() []string {
	if len(a.raw) == 0 {
		return nil
	}
	keys := make([]string, 0, len(a.raw))
	for ks := range a.raw {
		keys = append(keys, ks)
	}
	sort.Strings(keys)
	return keys
}

// walk feeds every key group of a shuffle that never spilled to fn. The raw
// run is first decoded into the decoded run, merging groups of keys present in
// both: every group is decoded exactly once, after the barrier, into a slice
// sized for its full value count.
func (a *shuffleAccumulator[K, V]) walk(fn func(K, []V) error) error {
	for ks, g := range a.raw {
		a.buf = append(a.buf[:0], ks...)
		k, _, err := a.codec.ReadKey(a.buf, 0)
		if err != nil {
			return fmt.Errorf("mapreduce: decoding shuffled key: %w", err)
		}
		total := 0
		for _, c := range g.chunks {
			total += c.count
		}
		vs := a.mem[k]
		if vs == nil && total > 0 {
			vs = make([]V, 0, total)
		}
		vs, err = a.codec.appendValues(vs, g.vals, total)
		if err != nil {
			return fmt.Errorf("mapreduce: decoding shuffled values of key %v: %w", k, err)
		}
		a.mem[k] = vs
	}
	a.raw = nil
	for k, vs := range a.mem {
		if err := fn(k, vs); err != nil {
			return err
		}
	}
	return nil
}

// segmentSink is the write stack of one spill segment file: buffered writes,
// optionally DEFLATE-compressed, over a counting writer that measures the
// bytes actually reaching disk (the SpilledBytes metric).
type segmentSink struct {
	f  *os.File
	cw *spillCountingWriter
	fw *flate.Writer // nil without compression
	bw *bufio.Writer
}

// newSegmentSink creates one segment file under dir.
func newSegmentSink(dir string, index int, compress bool) (*segmentSink, error) {
	f, err := os.CreateTemp(dir, fmt.Sprintf("seg-%04d-*.run", index))
	if err != nil {
		return nil, fmt.Errorf("mapreduce: creating spill segment: %w", err)
	}
	s := &segmentSink{f: f, cw: &spillCountingWriter{w: f}}
	var w io.Writer = s.cw
	if compress {
		// BestSpeed: spill segments are written once and read once; cheap
		// compression wins as soon as it beats the disk.
		s.fw, _ = flate.NewWriter(w, flate.BestSpeed)
		w = s.fw
	}
	s.bw = bufio.NewWriterSize(w, 256<<10)
	return s, nil
}

// finish flushes every layer of the write stack. The file stays open for
// read-back; the caller owns closing it.
func (s *segmentSink) finish() error {
	if err := s.bw.Flush(); err != nil {
		s.f.Close()
		return fmt.Errorf("mapreduce: flushing spill segment: %w", err)
	}
	if s.fw != nil {
		if err := s.fw.Close(); err != nil {
			s.f.Close()
			return fmt.Errorf("mapreduce: closing compressed spill segment: %w", err)
		}
	}
	return nil
}

// abort closes the file of a segment whose write failed.
func (s *segmentSink) abort() { s.f.Close() }

// openSegment rewinds a finished segment file and returns its read stack
// (mirroring the write stack of newSegmentSink).
func openSegment[K comparable, V any](codec *FrameCodec[K, V], f *os.File, compress bool) (*segmentReader[K, V], error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("mapreduce: rewinding spill segment: %w", err)
	}
	var r io.Reader = bufio.NewReaderSize(f, 256<<10)
	if compress {
		r = flate.NewReader(r)
	}
	return newSegmentReader(codec, bufio.NewReaderSize(r, 64<<10), maxSpillFrame), nil
}

// keyedRun is one key of the current in-memory run with its encoded form,
// the sort key of segments and of the merge. keyBytes aliases the run's key
// arena (off and end locate it there while the arena is still growing).
type keyedRun[K comparable] struct {
	keyBytes []byte
	off, end int
	key      K
}

// sortedRun returns the current in-memory run's keys sorted by encoded key
// bytes — the order segments are written in and the merge consumes. All keys
// encode into one arena (two allocations per run instead of one per key);
// the returned keyBytes alias it.
func (a *shuffleAccumulator[K, V]) sortedRun() []keyedRun[K] {
	keys := make([]keyedRun[K], 0, len(a.mem))
	arena := []byte(nil)
	for k := range a.mem {
		off := len(arena)
		arena = a.codec.AppendKey(arena, k)
		keys = append(keys, keyedRun[K]{off: off, end: len(arena), key: k})
	}
	for i := range keys {
		keys[i].keyBytes = arena[keys[i].off:keys[i].end]
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i].keyBytes, keys[j].keyBytes) < 0 })
	return keys
}

// spilled reports whether any run went to disk.
func (a *shuffleAccumulator[K, V]) spilled() bool { return len(a.segs) > 0 }

// stats returns the spill volume written so far.
func (a *shuffleAccumulator[K, V]) stats() (spilledBytes int64, spillCount int64) {
	return a.spilledBytes, int64(len(a.segs))
}

// merge streams every key group — the union of all on-disk segments, the
// final decoded run and the final raw run — to fn in encoded-key order. Each
// key is delivered exactly once with all of its values; fn therefore sees
// the same groups an in-memory shuffle would have built, just one at a time.
// Segment and raw-run entries stay encoded on the heap — ordering needs only
// their key bytes — and are decoded exactly once, when the fully assembled
// group is handed to fn.
func (a *shuffleAccumulator[K, V]) merge(fn func(K, []V) error) error {
	// Sort the final in-memory runs like segments.
	memRun := a.sortedRun()
	memNext := 0
	rawRun := a.sortedRawKeys()
	rawNext := 0

	h := &mergeHeap[K, V]{}
	readers := make([]*segmentReader[K, V], len(a.segs))
	for i, f := range a.segs {
		r, err := openSegment(a.codec, f, a.cfg.CompressSpill)
		if err != nil {
			return err
		}
		readers[i] = r
	}
	// advance pushes source src's next entry onto the heap. Source index
	// len(readers) is the decoded in-memory run, len(readers)+1 the raw one.
	memSrc, rawSrc := len(readers), len(readers)+1
	advance := func(src int) error {
		switch src {
		case memSrc:
			if memNext < len(memRun) {
				e := memRun[memNext]
				memNext++
				heap.Push(h, mergeEntry[K, V]{keyBytes: e.keyBytes, key: e.key, hasKey: true, decoded: true, vals: a.mem[e.key], src: src})
			}
			return nil
		case rawSrc:
			if rawNext < len(rawRun) {
				ks := rawRun[rawNext]
				rawNext++
				g := a.raw[ks]
				count := 0
				for _, c := range g.chunks {
					count += c.count
				}
				heap.Push(h, mergeEntry[K, V]{keyBytes: []byte(ks), raw: g.vals, count: count, src: src})
			}
			return nil
		}
		keyBytes, vals, count, err := readers[src].nextRaw()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("mapreduce: reading spill segment %d: %w", src, err)
		}
		heap.Push(h, mergeEntry[K, V]{keyBytes: keyBytes, raw: vals, count: count, src: src})
		return nil
	}
	for src := 0; src <= rawSrc; src++ {
		if err := advance(src); err != nil {
			return err
		}
	}

	var entries []mergeEntry[K, V] // reused across groups; contents are consumed by the end of each iteration
	for h.Len() > 0 {
		top := heap.Pop(h).(mergeEntry[K, V])
		if err := advance(top.src); err != nil {
			return err
		}
		entries = append(entries[:0], top)
		for h.Len() > 0 && bytes.Equal((*h)[0].keyBytes, top.keyBytes) {
			next := heap.Pop(h).(mergeEntry[K, V])
			entries = append(entries, next)
			if err := advance(next.src); err != nil {
				return err
			}
		}
		key, values, err := a.assembleGroup(top.keyBytes, entries)
		if err != nil {
			return err
		}
		if err := fn(key, values); err != nil {
			return err
		}
	}
	return nil
}

// assembleGroup decodes one merged key group. The values slice is freshly
// built per group (fn may hand it to a concurrent reducer) — except for the
// common single-source decoded case, which stays zero-copy.
func (a *shuffleAccumulator[K, V]) assembleGroup(keyBytes []byte, entries []mergeEntry[K, V]) (K, []V, error) {
	var key K
	gotKey := false
	total := 0
	for _, e := range entries {
		if e.decoded {
			total += len(e.vals)
			if e.hasKey {
				key = e.key
				gotKey = true
			}
		} else {
			total += e.count
		}
	}
	if !gotKey {
		k, _, err := a.codec.ReadKey(keyBytes, 0)
		if err != nil {
			return key, nil, fmt.Errorf("mapreduce: decoding shuffled key: %w", err)
		}
		key = k
	}
	if len(entries) == 1 && entries[0].decoded {
		return key, entries[0].vals, nil
	}
	values := make([]V, 0, total)
	for _, e := range entries {
		if e.decoded {
			values = append(values, e.vals...)
			continue
		}
		var err error
		values, err = a.codec.appendValues(values, e.raw, e.count)
		if err != nil {
			return key, nil, fmt.Errorf("mapreduce: decoding shuffled values of key %v: %w", key, err)
		}
	}
	return key, values, nil
}

// cleanup removes the spill segments and their directory. Safe to call when
// nothing was spilled.
func (a *shuffleAccumulator[K, V]) cleanup() {
	for _, f := range a.segs {
		f.Close()
	}
	a.segs = nil
	if a.dir != "" {
		os.RemoveAll(a.dir)
		a.dir = ""
	}
}

// mergeEntry is one run head on the merge heap. Decoded entries (the
// in-memory decoded run) carry Go values; encoded entries (segments and the
// in-memory raw run) carry the still-encoded value bytes, which only
// assembleGroup decodes.
type mergeEntry[K comparable, V any] struct {
	keyBytes []byte
	key      K
	hasKey   bool
	decoded  bool
	vals     []V    // decoded values (decoded == true)
	raw      []byte // encoded values (decoded == false)
	count    int    // number of encoded values in raw
	src      int
}

// mergeHeap is a min-heap of run heads ordered by encoded key bytes (ties
// broken by source so the merge is deterministic).
type mergeHeap[K comparable, V any] []mergeEntry[K, V]

func (h mergeHeap[K, V]) Len() int { return len(h) }
func (h mergeHeap[K, V]) Less(i, j int) bool {
	if c := bytes.Compare(h[i].keyBytes, h[j].keyBytes); c != 0 {
		return c < 0
	}
	return h[i].src < h[j].src
}
func (h mergeHeap[K, V]) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap[K, V]) Push(x any)   { *h = append(*h, x.(mergeEntry[K, V])) }
func (h *mergeHeap[K, V]) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// spillCountingWriter counts the bytes that reach the segment file.
type spillCountingWriter struct {
	w io.Writer
	n int64
}

func (c *spillCountingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// segmentWriter emits one spill segment: a sequence of frames, each a uvarint
// length prefix followed by the FrameCodec batch encoding (key, value count,
// values). Keys appear in sorted order; a key whose encoded values exceed
// spillChunkBytes is split across consecutive frames with the same key, which
// the merge reunites like any other duplicate key. A key with no values
// still writes one zero-count frame, so the spilling run reduces exactly the
// keys the in-memory run would (a combiner may legitimately prune every
// value of a key).
type segmentWriter[K comparable, V any] struct {
	codec    *FrameCodec[K, V]
	bw       *bufio.Writer
	vbuf     []byte // scratch for encoded values
	maxFrame int    // 0 means maxSpillFrame
}

func (w *segmentWriter[K, V]) writeKey(keyBytes []byte, values []V) error {
	bound := w.maxFrame
	if bound <= 0 {
		bound = maxSpillFrame
	}
	vbuf := w.vbuf[:0]
	count := 0
	empty := len(values) == 0
	flush := func() error {
		if count == 0 && !empty {
			return nil
		}
		empty = false
		frameLen := len(keyBytes) + UvarintLen(uint64(count)) + len(vbuf)
		// A frame holds at most spillChunkBytes of buffered values plus one
		// record; reject a frame the reader's corruption guard would refuse
		// rather than write an unreadable segment. (The wire transport's
		// default MaxFrame is the same bound, so such a record could not
		// shuffle remotely either.)
		if frameLen > bound {
			return fmt.Errorf("frame of %d encoded bytes exceeds the %d-byte spill frame bound", frameLen, bound)
		}
		var hdr [binary.MaxVarintLen64]byte
		if _, err := w.bw.Write(hdr[:binary.PutUvarint(hdr[:], uint64(frameLen))]); err != nil {
			return err
		}
		if _, err := w.bw.Write(keyBytes); err != nil {
			return err
		}
		if _, err := w.bw.Write(AppendUvarint(hdr[:0], uint64(count))); err != nil {
			return err
		}
		if _, err := w.bw.Write(vbuf); err != nil {
			return err
		}
		vbuf = vbuf[:0]
		count = 0
		return nil
	}
	for _, v := range values {
		vbuf = w.codec.AppendValue(vbuf, v)
		count++
		if len(vbuf) >= spillChunkBytes {
			if err := flush(); err != nil {
				w.vbuf = vbuf[:0]
				return err
			}
		}
	}
	err := flush()
	w.vbuf = vbuf
	return err
}

// writeRawGroup spills one raw group as straight byte copies: frames are cut
// along the group's received-frame boundaries (an encoded value is never
// split), coalescing consecutive chunks up to spillChunkBytes per frame. key
// is the group's encoded-key bytes (the raw map's key string).
func (w *segmentWriter[K, V]) writeRawGroup(key string, g *rawGroup) error {
	bound := w.maxFrame
	if bound <= 0 {
		bound = maxSpillFrame
	}
	start := 0
	for i := 0; i < len(g.chunks); {
		end := g.chunks[i].end
		count := g.chunks[i].count
		i++
		for i < len(g.chunks) && g.chunks[i].end-start <= spillChunkBytes {
			end = g.chunks[i].end
			count += g.chunks[i].count
			i++
		}
		frameLen := len(key) + UvarintLen(uint64(count)) + (end - start)
		if frameLen > bound {
			return fmt.Errorf("frame of %d encoded bytes exceeds the %d-byte spill frame bound", frameLen, bound)
		}
		var hdr [binary.MaxVarintLen64]byte
		if _, err := w.bw.Write(hdr[:binary.PutUvarint(hdr[:], uint64(frameLen))]); err != nil {
			return err
		}
		if _, err := w.bw.WriteString(key); err != nil {
			return err
		}
		if _, err := w.bw.Write(AppendUvarint(hdr[:0], uint64(count))); err != nil {
			return err
		}
		if _, err := w.bw.Write(g.vals[start:end]); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// segmentReader streams the frames of one spill segment back, values still
// encoded. It is robust against corrupt input (truncated prefixes, oversized
// frames, trailing garbage) and never allocates more than maxFrame per frame,
// so it can also be driven by the fuzzer.
type segmentReader[K comparable, V any] struct {
	codec    *FrameCodec[K, V]
	br       *bufio.Reader
	maxFrame int
}

func newSegmentReader[K comparable, V any](codec *FrameCodec[K, V], br *bufio.Reader, maxFrame int) *segmentReader[K, V] {
	if maxFrame <= 0 {
		maxFrame = maxSpillFrame
	}
	return &segmentReader[K, V]{codec: codec, br: br, maxFrame: maxFrame}
}

// nextRaw returns the next frame's encoded key, still-encoded value bytes
// and value count without decoding a single value — the form the k-way merge
// orders and regroups in. The returned slices alias one fresh per-frame
// buffer and stay valid after further reads. It returns io.EOF at a clean
// end of the segment.
func (r *segmentReader[K, V]) nextRaw() (keyBytes, vals []byte, count int, err error) {
	frame, err := r.readFrame()
	if err != nil {
		return nil, nil, 0, err
	}
	h, err := r.codec.parseFrameHeader(frame)
	if err != nil {
		return nil, nil, 0, err
	}
	return frame[:h.keyLen], frame[h.valsStart:], h.count, nil
}

// readFrame reads one length-prefixed frame into a fresh buffer, guarding
// against corrupt lengths. It returns io.EOF at a clean segment end.
func (r *segmentReader[K, V]) readFrame() ([]byte, error) {
	n, err := binary.ReadUvarint(r.br)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("reading frame length: %w", err)
	}
	if n == 0 || n > uint64(r.maxFrame) {
		return nil, fmt.Errorf("frame length %d out of range (max %d)", n, r.maxFrame)
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(r.br, frame); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("reading %d-byte frame: %w", n, err)
	}
	return frame, nil
}

// errShuffleNeedsCodec is returned when a multi-peer run, spilling or
// streaming is requested for a job that cannot serialize its records.
var errShuffleNeedsCodec = errors.New("mapreduce: multi-peer runs, ShuffleConfig.SpillThreshold and SendBufferBytes require a job Codec to serialize shuffle records")
