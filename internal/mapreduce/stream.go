package mapreduce

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"seqmine/internal/obs"
)

// sendOverflowGrace is how long a flush with a full sender queue waits for
// the sender before overflowing the run to disk. A full queue usually means
// the sender goroutine merely lost a scheduling race (or the box is briefly
// oversubscribed), not that the network stalled; paying disk for that would
// be far more expensive than the wait. Once a flush does time out, the peer
// is marked lagging and further overflow goes to disk immediately (no
// repeated stalls) until the sender catches up.
const sendOverflowGrace = 100 * time.Millisecond

// senderIdleCheck is how long the sender waits on an empty queue before
// replaying an overflow segment. Replaying while the map workers are still
// producing turns one overflow into a spiral (the replay blocks the queue,
// stalling flushes into more spill), so segments wait for a genuinely idle
// queue — or the end of the map phase, which drains them unconditionally.
const senderIdleCheck = 20 * time.Millisecond

// sendBufferGrowthFlushes is how many consecutive capacity-triggered flushes
// a destination absorbs — with its sender keeping up — before the adaptive
// send buffer (ShuffleConfig.SendBufferMaxBytes) doubles its share. Flushing
// at full occupancy that often means the buffer, not the network, is the
// bottleneck: bigger buffers mean fewer, larger flushes and better combining.
const sendBufferGrowthFlushes = 4

// This file implements the streaming pipelined shuffle
// (ShuffleConfig.SendBufferBytes > 0): instead of accumulating the whole map
// output and shuffling after a phase barrier, map workers emit into bounded
// per-peer send buffers that dedicated sender goroutines drain over the
// exchange while mapping continues. Network transfer therefore overlaps map
// compute, and a peer's sender memory is capped by SendBufferBytes per peer:
//
//   - each destination's buffer is sharded across the map workers (worker w
//     owns shard w mod nshards), so emits from different map workers do not
//     serialize on one mutex; each shard holds SendBufferBytes/nshards, so
//     the per-destination total still respects the cap;
//   - a shard that reaches its share is flushed — the combiner runs on the
//     buffered groups (partial combine; the reducers merge the partial
//     results exactly like batches from different peers), and the combined
//     batches are handed to the destination's sender goroutine;
//   - when the sender is still busy with the previous run (the network is
//     applying backpressure), the flushed run overflows to an on-disk
//     segment in the FrameCodec wire encoding — the same machinery the
//     receive side spills with — and the sender replays those segments as
//     the network catches up, so map compute never stalls and sender memory
//     never grows;
//   - batches this peer owns flush into the shuffle accumulator, which is
//     itself bounded by the spill threshold.
//
// Streaming and barrier mode produce identical mining results: the reduce
// phase sees the same multiset of values per key either way, only grouped
// into different partial batches.

// testSendBufferProbe, when non-nil, observes the per-peer send-buffer
// occupancy (in accounted bytes, summed over the destination's shards) after
// every emit. Tests use it to assert the SendBufferBytes bound; it must be
// set before the job starts and not changed while one runs.
var testSendBufferProbe func(peer int, occupancyBytes int64)

// jobShape is the slice of Job the streaming shuffle needs, avoiding a type
// parameter tangle with the job's input and output types.
type jobShape[K comparable, V any] struct {
	combine func(K, []V) []V
	sizeOf  func(K, V) int
	codec   *FrameCodec[K, V]
	wire    bool // ShuffleBytes comes from WireMetrics, skip the estimate
}

// streamShuffle is the per-RunExchange state of the streaming shuffle.
type streamShuffle[K comparable, V any] struct {
	cfg      ShuffleConfig
	combine  func(K, []V) []V
	sizeOf   func(K, V) int
	codec    *FrameCodec[K, V]
	wire     bool
	nshards  int
	shardCap int64 // initial per-shard byte share of SendBufferBytes
	// maxShardCap bounds the adaptive per-shard share
	// (SendBufferMaxBytes/nshards); equal to shardCap when adaptation is
	// disabled.
	maxShardCap int64

	acc    *shuffleAccumulator[K, V]
	dests  []*destSendState[K, V]
	shards []*sendShard[K, V] // dst*nshards + (worker mod nshards)

	// ctx carries the job's trace recorder (overflow-spill spans); occHist
	// observes per-destination buffer occupancy at flush time and segHist the
	// overflow-segment sizes. All no-ops when observability is not wired up.
	ctx     context.Context
	occHist *obs.Histogram
	segHist *obs.Histogram

	dir     string // lazily created overflow-segment directory
	dirOnce sync.Once
	dirErr  error

	senders sync.WaitGroup
	err     atomic.Value // first sender/flush error, wrapped in errBox
}

type errBox struct{ err error }

// destSendState is the per-destination half of the send path: the sender
// queue, the overflow segments and the accounting the shards share.
type destSendState[K comparable, V any] struct {
	owner *streamShuffle[K, V]
	dst   int
	self  bool

	// dead: a sender/flush error was recorded; drop further data.
	dead atomic.Bool
	// lagging: a flush timed the grace out; overflow goes straight to disk.
	lagging atomic.Bool
	// occupancy is the summed buffered bytes across the destination's shards
	// (the quantity SendBufferBytes bounds; observed by the test probe).
	occupancy atomic.Int64
	// shardCap is this destination's current per-shard byte share; starts at
	// the owner's shardCap and doubles (up to maxShardCap) after
	// sendBufferGrowthFlushes consecutive capacity flushes with the sender
	// keeping up (see noteFullFlush).
	shardCap atomic.Int64
	// capFlushes counts the consecutive capacity-triggered flushes feeding
	// the adaptive growth decision.
	capFlushes atomic.Int32
	// free recycles flushed batch slices from the sender back to the flush
	// path (bounded; misses fall back to allocation).
	free chan []KeyBatch[K, V]

	// queue hands flushed runs to the sender goroutine (remote peers only).
	// Its small capacity absorbs scheduler jitter — the sender losing the
	// CPU for a couple of timeslices must not stall the map workers or send
	// runs to disk. Flushes beyond a full queue overflow to disk after the
	// grace, so in-flight sender memory stays a small constant multiple of
	// SendBufferBytes per peer.
	queue chan []KeyBatch[K, V]

	// overflow segments, completed and not yet sent (remote peers only),
	// guarded by spillMu.
	spillMu      sync.Mutex
	segs         []*os.File
	spilledBytes int64
	spillCount   int64
	buf          []byte // scratch encode buffer for overflow segments

	// accounting, folded into Metrics after the barrier.
	records   atomic.Int64 // post-combine records flushed (ShuffleRecords share)
	batches   atomic.Int64 // flushed batches (StreamedBatches share)
	sizeBytes atomic.Int64 // SizeOf estimate of flushed records (non-wire runs)
}

// sendShard is one slice of one destination's send buffer. With nshards >=
// MapWorkers exactly one map worker fills each shard and emits never contend;
// when SendBufferBytes is smaller than the worker count, several workers
// share a shard (worker w uses shard w mod nshards). The mutex guards groups
// in both cases — finish() also flushes every shard from the engine
// goroutine. groups == nil marks a shard killed by a flush error.
type sendShard[K comparable, V any] struct {
	dest *destSendState[K, V]

	mu     sync.Mutex
	groups map[K][]V
	bytes  int64
}

// newStreamShuffle prepares the send states and starts one sender goroutine
// per remote peer. cfg.MapWorkers fixes the shard count: one shard per map
// worker (capped so every shard keeps a byte of budget when SendBufferBytes
// is smaller than the worker count).
func newStreamShuffle[K comparable, V any](cfg Config, job jobShape[K, V], acc *shuffleAccumulator[K, V], ex Exchange[K, V]) *streamShuffle[K, V] {
	sizeOf := job.sizeOf
	if sizeOf == nil {
		sizeOf = job.codec.RecordSize
	}
	nshards := cfg.MapWorkers
	if nshards < 1 {
		nshards = 1
	}
	if int64(nshards) > cfg.Shuffle.SendBufferBytes {
		nshards = int(cfg.Shuffle.SendBufferBytes)
		if nshards < 1 {
			nshards = 1
		}
	}
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	s := &streamShuffle[K, V]{
		cfg:      cfg.Shuffle,
		combine:  job.combine,
		sizeOf:   sizeOf,
		codec:    job.codec,
		wire:     job.wire,
		nshards:  nshards,
		shardCap: cfg.Shuffle.SendBufferBytes / int64(nshards),
		acc:      acc,
		dests:    make([]*destSendState[K, V], ex.NumPeers()),
		shards:   make([]*sendShard[K, V], ex.NumPeers()*nshards),
		ctx:      ctx,
		occHist: cfg.Obs.Histogram("seqmine_send_buffer_occupancy_bytes",
			"Per-destination streaming send-buffer occupancy, observed at each flush.", obs.ByteBuckets),
		segHist: spillSegmentHist(cfg.Obs),
	}
	s.maxShardCap = s.shardCap
	if cfg.Shuffle.Adaptive() {
		s.maxShardCap = cfg.Shuffle.SendBufferMaxBytes / int64(nshards)
	}
	self := ex.Self()
	for p := range s.dests {
		st := &destSendState[K, V]{owner: s, dst: p, self: p == self,
			free: make(chan []KeyBatch[K, V], 8)}
		st.shardCap.Store(s.shardCap)
		s.dests[p] = st
		for i := 0; i < nshards; i++ {
			s.shards[p*nshards+i] = &sendShard[K, V]{dest: st, groups: make(map[K][]V)}
		}
		if p == self {
			continue
		}
		st.queue = make(chan []KeyBatch[K, V], 4)
		s.senders.Add(1)
		go pprof.Do(ctx, pprof.Labels("seqmine_stage", "shuffle_send", "peer", strconv.Itoa(p)),
			func(context.Context) { st.runSender(ex) })
	}
	return s
}

// getBatches returns a recycled batch slice for one flush, or a fresh one.
func (st *destSendState[K, V]) getBatches(n int) []KeyBatch[K, V] {
	select {
	case b := <-st.free:
		return b
	default:
		return make([]KeyBatch[K, V], 0, n)
	}
}

// putBatches recycles a fully consumed batch slice. References to keys and
// value slices are dropped first so recycling never retains shuffle data.
func (st *destSendState[K, V]) putBatches(b []KeyBatch[K, V]) {
	clear(b)
	select {
	case st.free <- b[:0]:
	default:
	}
}

// noteFullFlush records one capacity-triggered flush for the adaptive send
// buffer. After sendBufferGrowthFlushes in a row — none of which found the
// sender lagging — the destination's per-shard share doubles, up to
// maxShardCap. A lagging sender resets the streak: a buffer that overflows
// to disk is bounded by the network, and growing it would only grow the
// overflow.
func (st *destSendState[K, V]) noteFullFlush() {
	s := st.owner
	if s.maxShardCap <= s.shardCap {
		return // adaptation disabled
	}
	if st.lagging.Load() {
		st.capFlushes.Store(0)
		return
	}
	if st.capFlushes.Add(1) < sendBufferGrowthFlushes {
		return
	}
	st.capFlushes.Store(0)
	cur := st.shardCap.Load()
	next := cur * 2
	if next > s.maxShardCap {
		next = s.maxShardCap
	}
	if next > cur {
		st.shardCap.Store(next)
	}
}

// emit routes one record from map worker w into the owning peer's send-buffer
// shard, flushing the shard first when adding the record would exceed its
// share (so per-destination occupancy stays within SendBufferBytes, plus one
// record per shard when a single record is larger than the shard's share).
func (s *streamShuffle[K, V]) emit(w, dst int, k K, v V) {
	st := s.dests[dst]
	if st.dead.Load() {
		return
	}
	sh := s.shards[dst*s.nshards+w%s.nshards]
	sz := int64(s.sizeOf(k, v))
	sh.mu.Lock()
	if sh.groups == nil {
		// A worker sharing this shard hit a flush error while we were
		// blocked on the mutex; the destination is dead.
		sh.mu.Unlock()
		return
	}
	if sh.bytes > 0 && sh.bytes+sz > st.shardCap.Load() {
		if err := sh.flushLocked(false); err != nil {
			st.dead.Store(true)
			sh.groups = nil
			sh.mu.Unlock()
			s.fail(err)
			return
		}
		st.noteFullFlush()
	}
	sh.groups[k] = append(sh.groups[k], v)
	sh.bytes += sz
	st.occupancy.Add(sz)
	if testSendBufferProbe != nil {
		testSendBufferProbe(dst, st.occupancy.Load())
	}
	sh.mu.Unlock()
}

// flushLocked combines the shard's buffered groups and hands them off:
// self-owned batches go to the shuffle accumulator, remote batches to the
// destination's sender queue, or — when the sender is busy and this is not
// the final flush — to an overflow segment on disk. Callers hold sh.mu; the
// handoff may block on the queue (grace wait), which is exactly the
// backpressure a full buffer means for this map worker — the other workers'
// shards stay available.
func (sh *sendShard[K, V]) flushLocked(final bool) error {
	if len(sh.groups) == 0 {
		return nil
	}
	st := sh.dest
	s := st.owner
	s.occHist.Observe(float64(st.occupancy.Load()))
	batches := st.getBatches(len(sh.groups))
	var records, sizeBytes int64
	for k, vs := range sh.groups {
		if s.combine != nil {
			vs = s.combine(k, vs)
		}
		records += int64(len(vs))
		if !s.wire {
			for _, v := range vs {
				sizeBytes += int64(s.sizeOf(k, v))
			}
		}
		batches = append(batches, KeyBatch[K, V]{Key: k, Values: vs})
	}
	st.records.Add(records)
	st.sizeBytes.Add(sizeBytes)
	st.batches.Add(int64(len(batches)))
	st.occupancy.Add(-sh.bytes)
	// The map is cleared, not reallocated: its buckets are reused by the
	// next fill (the value slices were handed off in batches).
	clear(sh.groups)
	sh.bytes = 0

	if st.self {
		for _, b := range batches {
			if err := s.acc.add(b); err != nil {
				return err
			}
		}
		st.putBatches(batches)
		return nil
	}
	if final {
		st.queue <- batches // mapping is done; blocking costs nothing
		return nil
	}
	select {
	case st.queue <- batches:
		st.lagging.Store(false)
		return nil
	default:
	}
	if !st.lagging.Load() {
		// Give the sender a short grace before paying disk. The wait holds
		// only this shard's mutex, so it stalls exactly the map worker whose
		// buffer is full; the sender never needs the mutex to drain the
		// queue, so it can free a slot (and end the wait) meanwhile.
		timer := time.NewTimer(sendOverflowGrace)
		defer timer.Stop()
		select {
		case st.queue <- batches:
			return nil
		case <-timer.C:
			st.lagging.Store(true)
		}
	}
	if err := st.spillRun(batches); err != nil {
		return err
	}
	st.putBatches(batches)
	return nil
}

// spillRun writes one flushed run to a fresh overflow segment the sender
// replays later. Runs are unsorted — unlike receive-side segments they are
// never merged, only replayed — so the write is a straight encode.
func (st *destSendState[K, V]) spillRun(batches []KeyBatch[K, V]) error {
	s := st.owner
	start := time.Now()
	s.dirOnce.Do(func() {
		dir, err := os.MkdirTemp(s.cfg.SpillTmpDir, "seqmine-sendspill-")
		if err != nil {
			s.dirErr = fmt.Errorf("mapreduce: creating send-overflow directory: %w", err)
			return
		}
		s.dir = dir
	})
	if s.dirErr != nil {
		return s.dirErr
	}
	st.spillMu.Lock()
	defer st.spillMu.Unlock()
	sink, err := newSegmentSink(s.dir, int(st.spillCount), s.cfg.CompressSpill)
	if err != nil {
		return err
	}
	w := segmentWriter[K, V]{codec: s.codec, bw: sink.bw, vbuf: st.buf}
	for _, b := range batches {
		if err := w.writeKey(s.codec.AppendKey(nil, b.Key), b.Values); err != nil {
			sink.abort()
			return fmt.Errorf("mapreduce: writing send-overflow segment: %w", err)
		}
	}
	if err := sink.finish(); err != nil {
		return err
	}
	st.buf = w.vbuf
	st.segs = append(st.segs, sink.f)
	st.spilledBytes += sink.cw.n
	st.spillCount++
	s.segHist.Observe(float64(sink.cw.n))
	obs.Observe(s.ctx, "mapreduce.spill", start, time.Since(start),
		obs.Int("bytes", sink.cw.n), obs.Int("dst", int64(st.dst)))
	return nil
}

// popSegment takes the oldest unsent overflow segment, if any.
func (st *destSendState[K, V]) popSegment() *os.File {
	st.spillMu.Lock()
	defer st.spillMu.Unlock()
	if len(st.segs) == 0 {
		return nil
	}
	f := st.segs[0]
	st.segs = st.segs[1:]
	return f
}

// runSender drains the peer's queue and overflow segments over the exchange
// until the queue is closed and every segment is replayed. On a send error
// it keeps consuming (discarding) so flushes never block against a dead
// peer; the error surfaces after the barrier.
func (st *destSendState[K, V]) runSender(ex Exchange[K, V]) {
	s := st.owner
	defer s.senders.Done()
	// A FrameSender exchange relays overflow segments as raw frames: the
	// on-disk record form is exactly the EncodeBatch wire form, so replay is
	// read → send with no decode→re-encode round trip.
	frames, _ := ex.(FrameSender)
	failed := false
	send := func(batches []KeyBatch[K, V]) {
		for _, b := range batches {
			if failed {
				break
			}
			if err := ex.Send(st.dst, b); err != nil {
				s.fail(err)
				failed = true
			}
		}
		st.putBatches(batches)
	}
	replaySegment := func(f *os.File) {
		name := f.Name()
		defer func() {
			f.Close()
			os.Remove(name)
		}()
		if failed {
			return
		}
		r, err := openSegment(s.codec, f, s.cfg.CompressSpill)
		if err != nil {
			s.fail(err)
			failed = true
			return
		}
		for !failed {
			if frames != nil {
				frame, err := r.readFrame()
				if err == io.EOF {
					return
				}
				if err != nil {
					s.fail(fmt.Errorf("mapreduce: replaying send-overflow segment: %w", err))
					failed = true
					return
				}
				if err := frames.SendFrame(st.dst, frame); err != nil {
					s.fail(err)
					failed = true
				}
				continue
			}
			_, b, err := r.next()
			if err == io.EOF {
				return
			}
			if err != nil {
				s.fail(fmt.Errorf("mapreduce: replaying send-overflow segment: %w", err))
				failed = true
				return
			}
			if err := ex.Send(st.dst, b); err != nil {
				s.fail(err)
				failed = true
			}
		}
	}
	drainSegments := func() {
		for {
			f := st.popSegment()
			if f == nil {
				return
			}
			replaySegment(f)
		}
	}
	for {
		// Strictly prefer queued in-memory runs: replaying a segment blocks
		// the queue for its whole duration, and doing that while the map
		// workers are still producing turns one overflow into a spiral
		// (stalled flushes → more spill → more replay). Segments are
		// replayed only after the queue has stayed idle for a beat — the
		// network has genuinely caught up — or when the map is done.
		select {
		case batches, ok := <-st.queue:
			if !ok {
				drainSegments()
				return
			}
			send(batches)
			continue
		default:
		}
		idle := time.NewTimer(senderIdleCheck)
		select {
		case batches, ok := <-st.queue:
			idle.Stop()
			if !ok {
				drainSegments()
				return
			}
			send(batches)
		case <-idle.C:
			if f := st.popSegment(); f != nil {
				replaySegment(f)
			} else {
				batches, ok := <-st.queue
				if !ok {
					drainSegments()
					return
				}
				send(batches)
			}
		}
	}
}

// finish flushes every shard, joins the senders and returns the first
// streaming error. After finish, CloseSend forms the barrier as usual.
func (s *streamShuffle[K, V]) finish() error {
	for _, sh := range s.shards {
		sh.mu.Lock()
		var err error
		if sh.groups != nil {
			err = sh.flushLocked(true)
		}
		if err != nil {
			sh.dest.dead.Store(true)
		}
		sh.mu.Unlock()
		if err != nil {
			s.fail(err)
		}
	}
	for _, st := range s.dests {
		if st.queue != nil {
			close(st.queue)
		}
	}
	s.senders.Wait()
	if b, ok := s.err.Load().(errBox); ok {
		return b.err
	}
	return nil
}

// fold adds the streaming counters to the job metrics. Call after finish.
func (s *streamShuffle[K, V]) fold(metrics *Metrics) {
	for _, st := range s.dests {
		batches := st.batches.Load()
		metrics.ShuffleRecords += st.records.Load()
		metrics.StreamedBatches += batches
		st.spillMu.Lock()
		spilledBytes, spillCount := st.spilledBytes, st.spillCount
		st.spillMu.Unlock()
		metrics.SpilledBytes += spilledBytes
		metrics.SpillCount += spillCount
		metrics.SendOverflowSegments += spillCount
		if !s.wire {
			metrics.ShuffleBytes += st.sizeBytes.Load()
		}
		if !st.self && (batches > 0 || spillCount > 0) {
			metrics.StreamPeers = append(metrics.StreamPeers, PeerStreamStats{
				Peer:             st.dst,
				StreamedBatches:  batches,
				OverflowSegments: spillCount,
			})
		}
	}
}

// cleanup removes overflow segments that were never replayed (error paths)
// and the overflow directory. Safe to call when nothing overflowed.
func (s *streamShuffle[K, V]) cleanup() {
	for _, st := range s.dests {
		st.spillMu.Lock()
		for _, f := range st.segs {
			f.Close()
		}
		st.segs = nil
		st.spillMu.Unlock()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// fail records the first streaming error.
func (s *streamShuffle[K, V]) fail(err error) {
	s.err.CompareAndSwap(nil, errBox{err})
}
