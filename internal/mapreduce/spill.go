package mapreduce

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
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
}

// Enabled reports whether the configuration asks for spilling.
func (c ShuffleConfig) Enabled() bool { return c.SpillThreshold > 0 }

// Streaming reports whether the send buffers are bounded, i.e. whether data
// leaves a peer while it still maps.
func (c ShuffleConfig) Streaming() bool { return c.SendBufferBytes > 0 }

const (
	// maxSpillFrame bounds one run record on read-back (corruption guard).
	// It matches the TCP transport's frame bound: a record too large to
	// spill would not fit the wire shuffle either. The run writer enforces it
	// up front — a single encoded record near this size is rejected with a
	// clear error instead of producing an unreadable run.
	maxSpillFrame = 64 << 20
	// spillChunkBytes caps the encoded values of one run record and the size
	// of a wire payload, so one hot key spanning a whole run still produces
	// bounded records (a record holds at most spillChunkBytes of values plus
	// one value, a payload at most spillChunkBytes plus one record).
	spillChunkBytes = 1 << 20
)

// shuffleAccumulator gathers the key groups a peer owns during the shuffle:
// its own, decoded, and the other peers', as the sorted runs (run.go) they
// arrive in. Below the spill threshold it only holds them; past it, the
// k-way merge of the current runs is written to a temp-file segment, itself
// a sorted run, and the reduce phase is fed by the same merge over the
// segments plus the final runs. add and addRun are safe for concurrent use
// (the map workers' hand-offs and the receiver both feed it); feed and
// release are called after the shuffle barrier, single-goroutine.
//
// Decoded batches (the ones this peer owns itself, which are zero-copy Go
// values) group into the decoded run mem. A received run is checked once and
// kept as it arrived, never regrouped: its values stay encoded through
// spilling and the merge until a fully assembled group reaches the reduce
// callback. A key may appear in any number of runs; the merge reunites it.
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

// runStore is the accumulator's storage: the current decoded run, the value
// slices a spill leaves for the next run's new keys, the received runs held
// in memory, and the run encoder's scratch. It outlives the job: release
// returns it to a process-wide pool, so a job's runs start out grown.
type runStore[K comparable, V any] struct {
	mem       map[K][]V
	spareVals [][]V
	runs      [][]byte
	enc       runEncoder[K, V]
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
		store = &runStore[K, V]{mem: make(map[K][]V)}
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

// add appends one batch to the decoded run, spilling when the runs exceed
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

// addRun takes one received run. Its records are checked — framing and key
// order — once, here, and the run is kept as it arrived; it counts toward
// the spill threshold at its wire size.
func (a *shuffleAccumulator[K, V]) addRun(run []byte) error {
	r := runReader[K, V]{codec: a.codec, data: run}
	for {
		if _, err := r.next(); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("mapreduce: received run: %w", err)
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.runs = append(a.runs, run)
	if !a.cfg.Enabled() {
		return nil
	}
	a.memBytes += int64(len(run))
	if a.memBytes < a.cfg.SpillThreshold {
		return nil
	}
	return a.spillLocked()
}

// spillLocked writes the merge of the current runs as one segment file and
// resets the runs. The decoded groups are combined first when the job has a
// combiner (equal keys buffered across several adds collapse before paying
// disk); received values are copied still encoded, a key's values from all
// runs coalesced into records of up to spillChunkBytes.
func (a *shuffleAccumulator[K, V]) spillLocked() error {
	if len(a.mem) == 0 && len(a.runs) == 0 {
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
	sink, err := newSegmentSink(a.dir, len(a.segs))
	if err != nil {
		return err
	}
	w := &a.enc.w
	w.reset(a.codec, sink.write)
	err = a.merge(nil, func(entries []mergeEntry[K, V]) error {
		w.openKey(entries[0].keyBytes)
		for _, e := range entries {
			var err error
			if e.decoded {
				vs := e.values
				if a.combine != nil && len(vs) > 1 {
					vs = a.combine(e.key, vs)
				}
				err = w.addValues(vs)
			} else {
				err = w.addEncoded(e.vals, e.count)
			}
			if err != nil {
				return err
			}
		}
		return w.closeKey()
	})
	if err == nil {
		err = w.end()
	}
	if err != nil {
		w.flush = nil
		sink.f.Close()
		return fmt.Errorf("mapreduce: writing spill segment: %w", err)
	}
	a.segs = append(a.segs, sink.f)
	a.spilledBytes += sink.n
	a.segHist.Observe(float64(sink.n))
	obs.Observe(a.ctx, "mapreduce.spill", start, time.Since(start),
		obs.Int("bytes", sink.n), obs.Int("segment", int64(len(a.segs)-1)))
	a.recycleRun()
	return nil
}

// recycleRun empties the current runs after they went to disk. The map
// keeps its buckets, the value slices wait for the next run's new keys; no
// key survives, so every key of the next run is one of its own adds.
func (a *shuffleAccumulator[K, V]) recycleRun() {
	for _, vs := range a.mem {
		if cap(vs) > 0 {
			a.spareVals = append(a.spareVals, vs[:0])
		}
	}
	clear(a.mem)
	clear(a.runs)
	a.runs = a.runs[:0]
	a.memBytes = 0
}

// feed streams every key group of the shuffle — the merge of the segments
// and the final runs — to fn in encoded-key order, each decoded exactly once
// into a lent group: values, and everything they reference, stay valid until
// release is called.
func (a *shuffleAccumulator[K, V]) feed(fn func(key K, values []V, release func()) error) error {
	return a.merge(a.segs, func(entries []mergeEntry[K, V]) error {
		l := a.lease()
		key, err := a.assembleGroup(l, entries)
		if err != nil {
			return err
		}
		return fn(key, l.values, l.release)
	})
}

// segReaders pools the segment read buffers: a job reads a few segments, and
// the buffers are far larger than what goes through them between two spills.
var segReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 256<<10) }}

// segmentSink is one spill segment file being written. It counts the bytes
// that reach the file (the SpilledBytes metric); the run writer buffers
// above it. The file stays open for read-back.
type segmentSink struct {
	f *os.File
	n int64
}

// newSegmentSink creates one segment file under dir.
func newSegmentSink(dir string, index int) (*segmentSink, error) {
	f, err := os.CreateTemp(dir, fmt.Sprintf("seg-%04d-*.run", index))
	if err != nil {
		return nil, fmt.Errorf("mapreduce: creating spill segment: %w", err)
	}
	return &segmentSink{f: f}, nil
}

func (s *segmentSink) write(p []byte) error {
	n, err := s.f.Write(p)
	s.n += int64(n)
	return err
}

// openSegment rewinds a finished segment file and returns its reader, whose
// close returns the read buffer to its pool.
func openSegment[K comparable, V any](codec *FrameCodec[K, V], f *os.File) (runReader[K, V], error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return runReader[K, V]{}, fmt.Errorf("mapreduce: rewinding spill segment: %w", err)
	}
	br := segReaders.Get().(*bufio.Reader)
	br.Reset(f)
	return runReader[K, V]{codec: codec, br: br}, nil
}

// close returns an opened segment's read buffer to its pool (a no-op for a
// run in memory).
func (r *runReader[K, V]) close() {
	if r.br != nil {
		r.br.Reset(nil)
		segReaders.Put(r.br)
	}
}

// stats returns the spill volume written so far.
func (a *shuffleAccumulator[K, V]) stats() (spilledBytes int64, spillCount int64) {
	return a.spilledBytes, int64(len(a.segs))
}

// mergeEntry is one run head on the merge heap: a key of the decoded run,
// with its Go values, or a record of an encoded run, whose values only
// assembleGroup decodes.
type mergeEntry[K comparable, V any] struct {
	record
	key     K
	decoded bool
	values  []V
	src     int
}

// merge is the shuffle's one k-way merge: it streams the key groups of the
// decoded run, the received runs held in memory and the segments segs to fn
// in encoded-key order. fn gets all of one key's entries at once — the
// decoded run's and one per record — so it sees every key exactly once.
// Ordering needs only the key bytes; nothing is decoded here. The entries,
// and the records they alias, are valid during fn. Spilling calls it without
// segments and writes the groups to a new segment; the reduce phase calls it
// over every segment and decodes the groups for Reduce.
func (a *shuffleAccumulator[K, V]) merge(segs []*os.File, fn func([]mergeEntry[K, V]) error) error {
	memRun := a.enc.sort(a.codec, a.mem)
	memNext := 0
	readers := make([]runReader[K, V], 0, len(segs)+len(a.runs))
	defer func() {
		for i := range readers {
			readers[i].close()
		}
	}()
	for _, f := range segs {
		r, err := openSegment(a.codec, f)
		if err != nil {
			return err
		}
		readers = append(readers, r)
	}
	for _, run := range a.runs {
		readers = append(readers, runReader[K, V]{codec: a.codec, data: run})
	}
	h := make(mergeHeap[K, V], 0, len(readers)+1)
	// advance pushes source src's next entry onto the heap. Source
	// len(readers) is the decoded run.
	memSrc := len(readers)
	advance := func(src int) error {
		if src == memSrc {
			if memNext < len(memRun) {
				kr := memRun[memNext]
				memNext++
				h.push(mergeEntry[K, V]{record: record{keyBytes: kr.keyBytes}, key: kr.key, decoded: true, values: a.mem[kr.key], src: src})
			}
			return nil
		}
		rec, err := readers[src].next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("mapreduce: reading shuffle run %d: %w", src, err)
		}
		h.push(mergeEntry[K, V]{record: rec, src: src})
		return nil
	}
	for src := 0; src <= memSrc; src++ {
		if err := advance(src); err != nil {
			return err
		}
	}

	var entries []mergeEntry[K, V] // reused across groups
	for len(h) > 0 {
		top := h.pop()
		if err := advance(top.src); err != nil {
			return err
		}
		entries = append(entries[:0], top)
		// Without a codec the decoded run is the only one, and its keys are
		// distinct.
		for a.codec != nil && len(h) > 0 && bytes.Equal(h[0].keyBytes, top.keyBytes) {
			next := h.pop()
			entries = append(entries, next)
			if err := advance(next.src); err != nil {
				return err
			}
		}
		if err := fn(entries); err != nil {
			return err
		}
		for _, e := range entries {
			if e.buf != nil {
				readers[e.src].recycle(e.buf)
			}
		}
	}
	return nil
}

// assembleGroup decodes one merged key group into the lease l. The values
// are decoded into the lease's own buffer — except for the common
// single-source decoded case, which lends the run's slice as it is.
func (a *shuffleAccumulator[K, V]) assembleGroup(l *lease[K, V], entries []mergeEntry[K, V]) (K, error) {
	// The decoded run is the merge's last source, so its entry comes last.
	last := entries[len(entries)-1]
	key := last.key
	if !last.decoded {
		k, _, err := a.codec.ReadKey(last.keyBytes, 0)
		if err != nil {
			return key, fmt.Errorf("mapreduce: decoding shuffled key: %w", err)
		}
		key = k
	} else if len(entries) == 1 {
		l.values = last.values
		return key, nil
	}
	values := l.own[:0]
	for _, e := range entries {
		if e.decoded {
			values = append(values, e.values...)
			continue
		}
		var err error
		values, err = l.dec.Decode(values, e.vals, e.count)
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

// errShuffleNeedsCodec is returned when a multi-peer run, spilling or
// streaming is requested for a job that cannot serialize its records.
var errShuffleNeedsCodec = errors.New("mapreduce: multi-peer runs, ShuffleConfig.SpillThreshold and SendBufferBytes require a job Codec to serialize shuffle records")
