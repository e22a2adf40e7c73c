package mapreduce

import (
	"bufio"
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
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
// hand-offs and the receiver both feed it); walk, merge and release are called
// after the shuffle barrier, single-goroutine.
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

	mu sync.Mutex
	*runStore[K, V]
	memBytes int64
	dir      string // lazily created spill directory, removed by cleanup
	segs     []*os.File

	spilledBytes int64

	// leases recycles the groups lent to the reduce phase (process-wide).
	leases *sync.Pool
}

// runStore is the accumulator's storage: the current run's two group maps,
// what a spill leaves for the next run — the value slices of the decoded
// groups and the raw groups themselves, emptied, for the run's new keys —
// and scratch. It outlives the job: release returns it to a process-wide
// pool, so a job's runs start out grown.
type runStore[K comparable, V any] struct {
	mem       map[K][]V
	raw       map[string]*rawGroup
	spareVals [][]V
	spareRaw  []*rawGroup
	runKeys   []keyedRun[K]
	keyArena  []byte
	rawRun    []*rawGroup
	buf       []byte // encode scratch of the segment writer
}

// rawGroup accumulates the still-encoded values one peer received for one
// key: the key's encoding, the value regions of every frame carrying that key,
// concatenated in arrival order, plus the frame boundaries (spilling re-frames
// along them so a segment frame never has to split an encoded value).
type rawGroup struct {
	key    []byte
	vals   []byte
	chunks []rawChunk
}

// count returns the number of values the group holds.
func (g *rawGroup) count() int {
	n := 0
	for _, c := range g.chunks {
		n += c.count
	}
	return n
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
	store, ok := poolOf[runStore[K, V]]().Get().(*runStore[K, V])
	if !ok {
		store = &runStore[K, V]{mem: make(map[K][]V), raw: make(map[string]*rawGroup)}
	}
	a := &shuffleAccumulator[K, V]{codec: codec, cfg: cfg, runStore: store, ctx: ctx,
		leases: poolOf[lease[K, V]](),
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
	vs, ok := a.mem[b.Key]
	if !ok && len(a.spareVals) > 0 {
		vs = a.spareVals[len(a.spareVals)-1]
		a.spareVals = a.spareVals[:len(a.spareVals)-1]
	}
	a.mem[b.Key] = append(vs, b.Values...)
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
// prefix. The group lookup allocates only on a key's first appearance in a
// run (the string conversion for the lookup itself does not escape). Buffered
// raw bytes count toward the spill threshold at their exact wire size.
func (a *shuffleAccumulator[K, V]) addRaw(frame []byte) error {
	h, err := a.codec.parseFrameHeader(frame)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	g, ok := a.raw[string(frame[:h.keyLen])]
	if !ok {
		if n := len(a.spareRaw); n > 0 {
			g = a.spareRaw[n-1]
			a.spareRaw = a.spareRaw[:n-1]
		} else {
			g = &rawGroup{}
		}
		g.key = append(g.key, frame[:h.keyLen]...)
		a.raw[string(g.key)] = g
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
	rawRun := a.sortedRaw()

	sink, err := newSegmentSink(a.dir, len(a.segs), a.cfg.CompressSpill)
	if err != nil {
		return err
	}
	w := segmentWriter[K, V]{codec: a.codec, bw: sink.bw, vbuf: a.buf}
	mi, ri := 0, 0
	for mi < len(memKeys) || ri < len(rawRun) {
		// Two-pointer merge of the sorted runs. A key present in both is
		// written as consecutive frames under the same key bytes, which the
		// reduce merge reunites like any duplicate key.
		writeMem, writeRaw := ri >= len(rawRun), mi >= len(memKeys)
		if !writeMem && !writeRaw {
			c := bytes.Compare(memKeys[mi].keyBytes, rawRun[ri].key)
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
			g := rawRun[ri]
			ri++
			if err := w.writeRawGroup(g); err != nil {
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
	a.buf = w.vbuf // keep the grown scratch buffer for the next spill
	a.recycleRun()
	return nil
}

// recycleRun empties the current run after it went to disk. The maps keep
// their buckets, the value slices and raw groups wait for the next run's new
// keys; no key survives, so every key of the next run is one of its own adds.
func (a *shuffleAccumulator[K, V]) recycleRun() {
	for _, vs := range a.mem {
		if cap(vs) > 0 {
			a.spareVals = append(a.spareVals, vs[:0])
		}
	}
	clear(a.mem)
	for _, g := range a.raw {
		g.key, g.vals, g.chunks = g.key[:0], g.vals[:0], g.chunks[:0]
		a.spareRaw = append(a.spareRaw, g)
	}
	clear(a.raw)
	a.memBytes = 0
}

// sortedRaw returns the raw run's groups in encoded-key order. The slice is
// scratch reused by the next call.
func (a *shuffleAccumulator[K, V]) sortedRaw() []*rawGroup {
	run := a.rawRun[:0]
	for _, g := range a.raw {
		run = append(run, g)
	}
	slices.SortFunc(run, func(x, y *rawGroup) int { return bytes.Compare(x.key, y.key) })
	a.rawRun = run
	return run
}

// groupFunc receives one key group from walk or merge. The group is lent:
// values, and everything they reference, stay valid until release is called.
type groupFunc[K comparable, V any] func(key K, values []V, release func()) error

// walk feeds every key group of a shuffle that never spilled to fn. A raw
// group is decoded after the values the decoded run holds for the same key:
// every group is decoded exactly once, after the barrier, into a lent value
// slice.
func (a *shuffleAccumulator[K, V]) walk(fn groupFunc[K, V]) error {
	for _, g := range a.raw {
		k, _, err := a.codec.ReadKey(g.key, 0)
		if err != nil {
			return fmt.Errorf("mapreduce: decoding shuffled key: %w", err)
		}
		l := a.lease()
		vs, err := l.dec.Decode(append(l.own[:0], a.mem[k]...), g.vals, g.count())
		if err != nil {
			return fmt.Errorf("mapreduce: decoding shuffled values of key %v: %w", k, err)
		}
		delete(a.mem, k)
		l.own, l.values = vs, vs
		if err := fn(k, vs, l.release); err != nil {
			return err
		}
	}
	for k, vs := range a.mem {
		l := a.lease()
		l.values = vs
		if err := fn(k, vs, l.release); err != nil {
			return err
		}
	}
	return nil
}

// The buffers of the segment write and read stacks come from pools: a job
// writes and reads a few segments, and the buffers are far larger than what
// goes through them between two spills.
var (
	segWriters      = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 256<<10) }}
	segFileReaders  = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 256<<10) }}
	segFrameReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}
)

// segmentSink is the write stack of one spill segment file: buffered writes,
// optionally DEFLATE-compressed, over a counting writer that measures the
// bytes actually reaching disk (the SpilledBytes metric).
type segmentSink struct {
	f  *os.File
	cw spillCountingWriter
	fw *flate.Writer // nil without compression
	bw *bufio.Writer
}

// newSegmentSink creates one segment file under dir.
func newSegmentSink(dir string, index int, compress bool) (*segmentSink, error) {
	f, err := os.CreateTemp(dir, fmt.Sprintf("seg-%04d-*.run", index))
	if err != nil {
		return nil, fmt.Errorf("mapreduce: creating spill segment: %w", err)
	}
	s := &segmentSink{f: f, cw: spillCountingWriter{w: f}}
	var w io.Writer = &s.cw
	if compress {
		// BestSpeed: spill segments are written once and read once; cheap
		// compression wins as soon as it beats the disk.
		s.fw, _ = flate.NewWriter(w, flate.BestSpeed)
		w = s.fw
	}
	s.bw = segWriters.Get().(*bufio.Writer)
	s.bw.Reset(w)
	return s, nil
}

// finish flushes every layer of the write stack and returns its buffer to
// the pool. The file stays open for read-back; the caller owns closing it.
func (s *segmentSink) finish() error {
	err := s.bw.Flush()
	if err != nil {
		err = fmt.Errorf("mapreduce: flushing spill segment: %w", err)
	} else if s.fw != nil {
		if err = s.fw.Close(); err != nil {
			err = fmt.Errorf("mapreduce: closing compressed spill segment: %w", err)
		}
	}
	if err != nil {
		s.abort()
		return err
	}
	s.bw.Reset(nil)
	segWriters.Put(s.bw)
	return nil
}

// abort closes the file of a segment whose write failed. Its buffer, which
// may hold a failed write's error, is dropped.
func (s *segmentSink) abort() { s.f.Close() }

// openSegment rewinds a finished segment file and returns its read stack
// (mirroring the write stack of newSegmentSink). close returns the stack's
// buffers to their pools.
func openSegment[K comparable, V any](codec *FrameCodec[K, V], f *os.File, compress bool) (*segmentReader[K, V], error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("mapreduce: rewinding spill segment: %w", err)
	}
	fileBuf := segFileReaders.Get().(*bufio.Reader)
	fileBuf.Reset(f)
	var src io.Reader = fileBuf
	if compress {
		src = flate.NewReader(src)
	}
	frames := segFrameReaders.Get().(*bufio.Reader)
	frames.Reset(src)
	r := newSegmentReader(codec, frames, maxSpillFrame)
	r.fileBuf = fileBuf
	return r, nil
}

// keyedRun is one key of the current in-memory run with its encoded form,
// the sort key of segments and of the merge. keyBytes aliases the
// accumulator's key arena (off and end locate it there while the arena is
// still growing).
type keyedRun[K comparable] struct {
	keyBytes []byte
	off, end int
	key      K
}

// sortedRun returns the current in-memory run's keys sorted by encoded key
// bytes — the order segments are written in and the merge consumes. All keys
// encode into one arena; the arena and the returned slice are scratch reused
// by the next call.
func (a *shuffleAccumulator[K, V]) sortedRun() []keyedRun[K] {
	keys := a.runKeys[:0]
	arena := a.keyArena[:0]
	for k := range a.mem {
		off := len(arena)
		arena = a.codec.AppendKey(arena, k)
		keys = append(keys, keyedRun[K]{off: off, end: len(arena), key: k})
	}
	for i := range keys {
		keys[i].keyBytes = arena[keys[i].off:keys[i].end]
	}
	slices.SortFunc(keys, func(x, y keyedRun[K]) int { return bytes.Compare(x.keyBytes, y.keyBytes) })
	a.runKeys, a.keyArena = keys, arena
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
// their key bytes — and are decoded exactly once, into a lent group, when the
// fully assembled group is handed to fn. A segment frame goes back to its
// reader as soon as its values are decoded.
func (a *shuffleAccumulator[K, V]) merge(fn groupFunc[K, V]) error {
	// Sort the final in-memory runs like segments.
	memRun := a.sortedRun()
	memNext := 0
	rawRun := a.sortedRaw()
	rawNext := 0

	readers := make([]*segmentReader[K, V], 0, len(a.segs))
	defer func() {
		for _, r := range readers {
			r.close()
		}
	}()
	for _, f := range a.segs {
		r, err := openSegment(a.codec, f, a.cfg.CompressSpill)
		if err != nil {
			return err
		}
		readers = append(readers, r)
	}
	h := make(mergeHeap[K, V], 0, len(readers)+2)
	// advance pushes source src's next entry onto the heap. Source index
	// len(readers) is the decoded in-memory run, len(readers)+1 the raw one.
	memSrc, rawSrc := len(readers), len(readers)+1
	advance := func(src int) error {
		switch src {
		case memSrc:
			if memNext < len(memRun) {
				e := memRun[memNext]
				memNext++
				h.push(mergeEntry[K, V]{keyBytes: e.keyBytes, key: e.key, decoded: true, vals: a.mem[e.key], src: src})
			}
			return nil
		case rawSrc:
			if rawNext < len(rawRun) {
				g := rawRun[rawNext]
				rawNext++
				h.push(mergeEntry[K, V]{keyBytes: g.key, raw: g.vals, count: g.count(), src: src})
			}
			return nil
		}
		frame, fh, err := readers[src].next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("mapreduce: reading spill segment %d: %w", src, err)
		}
		h.push(mergeEntry[K, V]{keyBytes: frame[:fh.keyLen], raw: frame[fh.valsStart:], count: fh.count, frame: frame, src: src})
		return nil
	}
	for src := 0; src <= rawSrc; src++ {
		if err := advance(src); err != nil {
			return err
		}
	}

	var entries []mergeEntry[K, V] // reused across groups; contents are consumed by the end of each iteration
	for len(h) > 0 {
		top := h.pop()
		if err := advance(top.src); err != nil {
			return err
		}
		entries = append(entries[:0], top)
		for len(h) > 0 && bytes.Equal(h[0].keyBytes, top.keyBytes) {
			next := h.pop()
			entries = append(entries, next)
			if err := advance(next.src); err != nil {
				return err
			}
		}
		l := a.lease()
		key, err := a.assembleGroup(l, top.keyBytes, entries)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.frame != nil {
				readers[e.src].recycle(e.frame)
			}
		}
		if err := fn(key, l.values, l.release); err != nil {
			return err
		}
	}
	return nil
}

// assembleGroup decodes one merged key group into the lease l. The values
// are decoded into the lease's own buffer — except for the common
// single-source decoded case, which lends the run's slice as it is.
func (a *shuffleAccumulator[K, V]) assembleGroup(l *lease[K, V], keyBytes []byte, entries []mergeEntry[K, V]) (K, error) {
	var key K
	gotKey := false
	for _, e := range entries {
		if e.decoded {
			key, gotKey = e.key, true
			break
		}
	}
	if !gotKey {
		k, _, err := a.codec.ReadKey(keyBytes, 0)
		if err != nil {
			return key, fmt.Errorf("mapreduce: decoding shuffled key: %w", err)
		}
		key = k
	}
	if len(entries) == 1 && entries[0].decoded {
		l.values = entries[0].vals
		return key, nil
	}
	values := l.own[:0]
	for _, e := range entries {
		if e.decoded {
			values = append(values, e.vals...)
			continue
		}
		var err error
		values, err = l.dec.Decode(values, e.raw, e.count)
		if err != nil {
			return key, fmt.Errorf("mapreduce: decoding shuffled values of key %v: %w", key, err)
		}
	}
	l.own, l.values = values, values
	return key, nil
}

// release ends the job's use of the accumulator: it removes the spill
// segments and returns the storage to its pool. Every lent group must have
// been released.
func (a *shuffleAccumulator[K, V]) release() {
	a.cleanup()
	a.recycleRun()
	poolOf[runStore[K, V]]().Put(a.runStore)
	a.runStore = nil
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
// in-memory decoded run) carry their key and Go values; encoded entries
// (segments and the in-memory raw run) carry the still-encoded value bytes,
// which only assembleGroup decodes. frame is the segment reader's buffer the
// entry aliases (nil for the in-memory runs).
type mergeEntry[K comparable, V any] struct {
	keyBytes []byte
	key      K
	decoded  bool
	vals     []V    // decoded values (decoded == true)
	raw      []byte // encoded values (decoded == false)
	count    int    // number of encoded values in raw
	frame    []byte
	src      int
}

// mergeHeap is a min-heap of run heads ordered by encoded key bytes (ties
// broken by source so the merge is deterministic).
type mergeHeap[K comparable, V any] []mergeEntry[K, V]

func (h mergeHeap[K, V]) less(i, j int) bool {
	if c := bytes.Compare(h[i].keyBytes, h[j].keyBytes); c != 0 {
		return c < 0
	}
	return h[i].src < h[j].src
}

func (h *mergeHeap[K, V]) push(e mergeEntry[K, V]) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *mergeHeap[K, V]) pop() mergeEntry[K, V] {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = mergeEntry[K, V]{}
	s = s[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && s.less(r, m) {
			m = r
		}
		if !s.less(m, i) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
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
	hdr      [binary.MaxVarintLen64]byte
}

// writeFrame writes one frame: the length prefix, the key, the value count
// and the encoded values. A frame holds at most spillChunkBytes of buffered
// values plus one record; a frame the reader's corruption guard would refuse
// is rejected rather than written into an unreadable segment. (The wire
// transport's default MaxFrame is the same bound, so such a record could not
// shuffle remotely either.)
func (w *segmentWriter[K, V]) writeFrame(key []byte, count int, vals []byte) error {
	bound := w.maxFrame
	if bound <= 0 {
		bound = maxSpillFrame
	}
	frameLen := len(key) + UvarintLen(uint64(count)) + len(vals)
	if frameLen > bound {
		return fmt.Errorf("frame of %d encoded bytes exceeds the %d-byte spill frame bound", frameLen, bound)
	}
	if _, err := w.bw.Write(w.hdr[:binary.PutUvarint(w.hdr[:], uint64(frameLen))]); err != nil {
		return err
	}
	if _, err := w.bw.Write(key); err != nil {
		return err
	}
	if _, err := w.bw.Write(AppendUvarint(w.hdr[:0], uint64(count))); err != nil {
		return err
	}
	_, err := w.bw.Write(vals)
	return err
}

func (w *segmentWriter[K, V]) writeKey(keyBytes []byte, values []V) error {
	vbuf := w.vbuf[:0]
	count := 0
	empty := len(values) == 0
	flush := func() error {
		if count == 0 && !empty {
			return nil
		}
		empty = false
		err := w.writeFrame(keyBytes, count, vbuf)
		vbuf = vbuf[:0]
		count = 0
		return err
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
// split), coalescing consecutive chunks up to spillChunkBytes per frame.
func (w *segmentWriter[K, V]) writeRawGroup(g *rawGroup) error {
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
		if err := w.writeFrame(g.key, count, g.vals[start:end]); err != nil {
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
	free     [][]byte      // frame buffers handed back by recycle
	fileBuf  *bufio.Reader // openSegment's pooled file buffer under br
}

func newSegmentReader[K comparable, V any](codec *FrameCodec[K, V], br *bufio.Reader, maxFrame int) *segmentReader[K, V] {
	if maxFrame <= 0 {
		maxFrame = maxSpillFrame
	}
	return &segmentReader[K, V]{codec: codec, br: br, maxFrame: maxFrame}
}

// nextRaw returns the next frame's encoded key, still-encoded value bytes
// and value count without decoding a single value. The returned slices
// alias the frame buffer of next. It returns io.EOF at a clean end of the
// segment.
func (r *segmentReader[K, V]) nextRaw() (keyBytes, vals []byte, count int, err error) {
	frame, h, err := r.next()
	if err != nil {
		return nil, nil, 0, err
	}
	return frame[:h.keyLen], frame[h.valsStart:], h.count, nil
}

// next reads the next frame and parses its header — the form the k-way merge
// orders and regroups in. The frame stays valid, whatever is read after it,
// until it is passed to recycle. It returns io.EOF at a clean end of the
// segment.
func (r *segmentReader[K, V]) next() ([]byte, frameHeader, error) {
	frame, err := r.readFrame()
	if err != nil {
		return nil, frameHeader{}, err
	}
	h, err := r.codec.parseFrameHeader(frame)
	if err != nil {
		return nil, frameHeader{}, err
	}
	return frame, h, nil
}

// recycle hands a frame returned by next back for reuse by later reads.
func (r *segmentReader[K, V]) recycle(frame []byte) {
	r.free = append(r.free, frame)
}

// readFrame reads one length-prefixed frame into a recycled or fresh
// buffer, guarding against corrupt lengths. It returns io.EOF at a clean
// segment end.
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
	var frame []byte
	if k := len(r.free); k > 0 {
		frame = r.free[k-1]
		r.free = r.free[:k-1]
	}
	if uint64(cap(frame)) < n {
		frame = make([]byte, n)
	}
	frame = frame[:n]
	if _, err := io.ReadFull(r.br, frame); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("reading %d-byte frame: %w", n, err)
	}
	return frame, nil
}

// close returns the buffers of openSegment's read stack to their pools.
func (r *segmentReader[K, V]) close() {
	r.br.Reset(nil)
	segFrameReaders.Put(r.br)
	r.fileBuf.Reset(nil)
	segFileReaders.Put(r.fileBuf)
}

// errShuffleNeedsCodec is returned when a multi-peer run, spilling or
// streaming is requested for a job that cannot serialize its records.
var errShuffleNeedsCodec = errors.New("mapreduce: multi-peer runs, ShuffleConfig.SpillThreshold and SendBufferBytes require a job Codec to serialize shuffle records")
