package mapreduce

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"seqmine/internal/obs"
)

// This file implements the send path, the one way a key's records travel
// from the map workers to the peer that reduces the key:
//
//	buffer → combine → queue → sender
//
//   - every map worker owns one buffer per destination peer, so emits never
//     synchronize;
//   - a buffer's capacity is the worker's share of
//     ShuffleConfig.SendBufferBytes, or unbounded when that is <= 0. A full
//     buffer is flushed: the combiner runs on the buffered groups (a partial
//     combine; the reducers merge partial results exactly like batches from
//     different peers) and the run is handed to the destination's sender
//     goroutine, so network transfer overlaps map compute. What a buffer
//     still holds when its worker runs out of input is combined there and
//     handed off once the whole map phase has ended — for an unbounded buffer
//     that is the only hand-off, so nothing leaves before the map ends (the
//     barrier shuffle);
//   - when the sender is still busy with earlier runs (the network is
//     applying backpressure) and its short queue is full, the hand-off blocks:
//     a slow peer slows the map workers that produce for it, and sender memory
//     never grows;
//   - runs this peer owns go into the shuffle accumulator, which is itself
//     bounded by the spill threshold;
//   - a cancelled or failed run drops what it still buffers: only the end
//     frames follow, so the other peers complete their barrier.
//
// Because the hand-off blocks, a destination's buffered bytes never exceed
// SendBufferBytes plus one record per map worker (a record larger than the
// worker's whole share still has to be buffered once), plus the constant four
// queued runs of its sender. The reduce phase sees the same multiset of
// values per key whatever the capacity, only grouped into different partial
// batches, so mining results do not depend on it.

// testSendBufferProbe, when non-nil, observes the per-peer send-buffer
// occupancy (in accounted bytes, summed over the map workers' buffers) after
// every emit into a bounded buffer. Tests use it to assert the
// SendBufferBytes bound; it must be set before the job starts and not changed
// while one runs.
var testSendBufferProbe func(peer int, occupancyBytes int64)

// sendPath is the per-Run state of the send path.
type sendPath[K comparable, V any] struct {
	bounded bool  // buffers have a capacity (ShuffleConfig.Streaming())
	share   int64 // one map worker's byte share of SendBufferBytes
	combine func(K, []V) []V
	// sizeOf prices a record for the buffer bound and for the ShuffleBytes
	// estimate; nil (unbounded runs of jobs without SizeOf) counts one byte
	// per record.
	sizeOf func(K, V) int
	wire   bool // ShuffleBytes comes from ByteExchange.WireBytesOut, skip the estimate
	self   int

	acc   *shuffleAccumulator[K, V]
	dests []*destSendState[K, V]
	bufs  [][]sendBuffer[K, V] // [map worker][destination]

	// ctx cancels the run; occHist observes per-destination buffer occupancy
	// at flush time (a no-op when observability is not wired up).
	ctx     context.Context
	occHist *obs.Histogram

	runs *sync.Pool // of *sendRun[K, V], process-wide

	senders sync.WaitGroup
	err     atomic.Pointer[error] // first sender/flush error
}

// runStats counts one or more combined runs: key batches, records and (on
// single-process runs) their estimated bytes.
type runStats struct{ batches, records, sizeBytes int64 }

func (r *runStats) add(o runStats) {
	r.batches += o.batches
	r.records += o.records
	r.sizeBytes += o.sizeBytes
}

// sendBuffer is one map worker's buffer toward one destination. Only its
// worker touches it during the map phase; finish and fold read it after the
// workers have joined.
type sendBuffer[K comparable, V any] struct {
	run   *sendRun[K, V]
	bytes int64    // accounted size of run (bounded buffers only)
	held  runStats // run once sealed: combined, not yet handed off
	sent  runStats // everything handed off so far
}

// sendRun is what a send buffer fills and hands off: the buffered groups, and
// the value slices of earlier fills kept for reuse. Keys are never kept — a
// consumed run is cleared — so a key the combiner pruned to no values is still
// a key of the run it was emitted into, and of no later one. Consumed runs go
// back to a process-wide pool, so a job's buffers start out grown.
type sendRun[K comparable, V any] struct {
	groups map[K][]V
	spare  [][]V
}

// add appends v to k's group, starting a new group on a spare value slice.
func (r *sendRun[K, V]) add(k K, v V) {
	vs, ok := r.groups[k]
	if !ok && len(r.spare) > 0 {
		vs = r.spare[len(r.spare)-1]
		r.spare = r.spare[:len(r.spare)-1]
	}
	r.groups[k] = append(vs, v)
}

// keep records a group's value slice for reuse once the run has been
// consumed. seal calls it before combining: a combiner may compact in place
// or return another slice, and only the one add grew is the run's to reuse.
func (r *sendRun[K, V]) keep(vs []V) {
	if cap(vs) > 0 {
		r.spare = append(r.spare, vs[:0])
	}
}

// destSendState is the per-destination half of the send path: the sender
// queue and what the workers' buffers share.
type destSendState[K comparable, V any] struct {
	owner *sendPath[K, V]
	dst   int

	// occupancy is the summed buffered bytes across the map workers' buffers
	// toward this destination (the quantity SendBufferBytes bounds).
	occupancy atomic.Int64
	// queue hands flushed runs to the sender goroutine (nil for this peer
	// itself). Its small capacity absorbs scheduler jitter — the sender losing
	// the CPU for a couple of timeslices must not stall the map workers.
	// Hand-offs beyond a full queue block, so in-flight sender memory stays a
	// small constant multiple of SendBufferBytes per peer.
	queue chan *sendRun[K, V]
}

// newSendPath prepares the buffers and starts one sender goroutine per remote
// peer of bx (none when bx is nil).
func newSendPath[I any, K comparable, V any, O any](cfg Config, job Job[I, K, V, O], acc *shuffleAccumulator[K, V], bx ByteExchange) *sendPath[K, V] {
	self, npeers := peersOf(bx)
	s := &sendPath[K, V]{
		bounded: cfg.Shuffle.Streaming(),
		share:   cfg.Shuffle.SendBufferBytes / int64(cfg.Workers),
		combine: job.Combine,
		sizeOf:  job.SizeOf,
		wire:    bx != nil,
		self:    self,
		acc:     acc,
		dests:   make([]*destSendState[K, V], npeers),
		bufs:    make([][]sendBuffer[K, V], cfg.Workers),
		ctx:     cfg.Context,
		runs:    poolOf[sendRun[K, V]](),
		occHist: cfg.Obs.Histogram("seqmine_send_buffer_occupancy_bytes",
			"Per-destination streaming send-buffer occupancy, observed at each flush.", obs.ByteBuckets),
	}
	if s.sizeOf == nil && s.bounded {
		s.sizeOf = job.Codec.RecordSize
	}
	for w := range s.bufs {
		s.bufs[w] = make([]sendBuffer[K, V], len(s.dests))
		for dst := range s.bufs[w] {
			s.bufs[w][dst].run = s.getRun()
		}
	}
	for p := range s.dests {
		st := &destSendState[K, V]{owner: s, dst: p}
		s.dests[p] = st
		if p == s.self {
			continue
		}
		st.queue = make(chan *sendRun[K, V], 4)
		s.senders.Add(1)
		go pprof.Do(s.ctx, pprof.Labels("seqmine_stage", "shuffle_send", "peer", strconv.Itoa(p)),
			func(context.Context) { st.runSender(bx, job.Codec) })
	}
	return s
}

// getRun returns a recycled (empty) run, or a fresh one.
func (s *sendPath[K, V]) getRun() *sendRun[K, V] {
	if r, ok := s.runs.Get().(*sendRun[K, V]); ok {
		return r
	}
	return &sendRun[K, V]{groups: make(map[K][]V)}
}

// putRun recycles a run that has been consumed or will never be sent, once
// sealed. Its map is cleared, not reallocated: the buckets and the spare
// value slices are reused by the next fill.
func (s *sendPath[K, V]) putRun(r *sendRun[K, V]) {
	clear(r.groups)
	s.runs.Put(r)
}

// lost reports whether the run can no longer succeed — it was cancelled or a
// flush or sender failed. What is still buffered is then dropped.
func (s *sendPath[K, V]) lost() bool {
	return s.ctx.Err() != nil || s.err.Load() != nil
}

// add buffers one record of map worker w (b is the worker's buffer toward
// dst), flushing the buffer first when the record would exceed the worker's
// share.
func (s *sendPath[K, V]) add(b *sendBuffer[K, V], dst int, k K, v V) {
	if s.bounded {
		st := s.dests[dst]
		sz := int64(s.sizeOf(k, v))
		if b.bytes > 0 && b.bytes+sz > s.share {
			s.flush(b, st)
		}
		b.bytes += sz
		occupancy := st.occupancy.Add(sz)
		if testSendBufferProbe != nil {
			testSendBufferProbe(dst, occupancy)
		}
	}
	b.run.add(k, v)
}

// seal combines what the buffer holds. A map worker seals its buffers when it
// runs out of input, so the final combine is part of the (parallel) map phase;
// finish hands the sealed runs off.
func (s *sendPath[K, V]) seal(b *sendBuffer[K, V]) {
	groups := b.run.groups
	b.held = runStats{batches: int64(len(groups))}
	for k, vs := range groups {
		b.run.keep(vs)
		if s.combine != nil {
			vs = s.combine(k, vs)
			groups[k] = vs
		}
		b.held.records += int64(len(vs))
		switch {
		case s.wire:
		case s.sizeOf != nil:
			for _, v := range vs {
				b.held.sizeBytes += int64(s.sizeOf(k, v))
			}
		default:
			b.held.sizeBytes += int64(len(vs))
		}
	}
}

// flush empties a full buffer while its worker is still mapping.
func (s *sendPath[K, V]) flush(b *sendBuffer[K, V], st *destSendState[K, V]) {
	s.occHist.Observe(float64(st.occupancy.Load()))
	st.occupancy.Add(-b.bytes)
	b.bytes = 0
	if s.lost() {
		clear(b.run.groups)
		return
	}
	s.seal(b)
	if err := s.handOff(b, st); err != nil {
		s.fail(err)
	}
	b.run = s.getRun()
}

// handOff passes the buffer's sealed groups on, mid-map and after the map
// alike: to the shuffle accumulator when this peer owns them, else to the
// destination's sender queue. A full queue blocks the hand-off until the
// sender frees a slot or the run is cancelled — exactly the backpressure a slow
// peer means for this map worker; the other workers own their buffers and keep
// going. The run belongs to the receiver afterwards; the accumulator copies
// the values it is handed, so this peer's own runs are recycled at once.
func (s *sendPath[K, V]) handOff(b *sendBuffer[K, V], st *destSendState[K, V]) error {
	run := b.run
	if st.queue == nil {
		for k, vs := range run.groups {
			if err := s.acc.add(KeyBatch[K, V]{Key: k, Values: vs}); err != nil {
				return err
			}
		}
		s.putRun(run)
	} else {
		select {
		case st.queue <- run:
		case <-s.ctx.Done():
			return s.ctx.Err()
		}
	}
	b.sent.add(b.held)
	return nil
}

// runSender writes the peer's queued runs as sorted runs (run.go) and sends
// each one over the exchange, one payload per spillChunkBytes, until the
// queue is closed. It is the destination's only writer, so one run encoder
// (pooled across jobs) serves the whole job. Once the job is lost (a send
// failed, or it was cancelled) it keeps consuming but discards, so hand-offs
// never block against a dead peer; the error surfaces after the barrier.
func (st *destSendState[K, V]) runSender(bx ByteExchange, codec *FrameCodec[K, V]) {
	s := st.owner
	defer s.senders.Done()
	encoders := poolOf[runEncoder[K, V]]()
	enc, ok := encoders.Get().(*runEncoder[K, V])
	if !ok {
		enc = new(runEncoder[K, V])
	}
	defer encoders.Put(enc)
	send := func(payload []byte) error { return bx.Send(st.dst, payload) }
	for run := range st.queue {
		if !s.lost() {
			if err := enc.writeRun(codec, run.groups, send); err != nil {
				s.fail(err)
			}
		}
		s.putRun(run)
	}
}

// finish hands off what the map workers' sealed buffers still hold (nothing
// when the run is lost), joins the senders and returns the first send-path
// error. It runs after the map workers have joined; CloseSend then forms the
// barrier as usual.
func (s *sendPath[K, V]) finish() error {
	for dst, st := range s.dests {
		for w := range s.bufs {
			b := &s.bufs[w][dst]
			if len(b.run.groups) == 0 || s.lost() {
				s.putRun(b.run) // sealed: its value slices are kept already
			} else if err := s.handOff(b, st); err != nil {
				s.fail(err)
			}
			b.run = nil // the receiver recycles what it was handed
		}
		if st.queue != nil {
			close(st.queue)
		}
	}
	s.senders.Wait()
	if err := s.err.Load(); err != nil {
		return *err
	}
	return nil
}

// fold adds the send path's counters to the job metrics. Call after finish.
func (s *sendPath[K, V]) fold(metrics *Metrics) {
	for dst := range s.dests {
		var sent runStats
		for w := range s.bufs {
			sent.add(s.bufs[w][dst].sent)
		}
		metrics.ShuffleRecords += sent.records
		metrics.ShuffleBytes += sent.sizeBytes
		if s.bounded {
			metrics.StreamedBatches += sent.batches
		}
	}
}

// fail records the first send-path error.
func (s *sendPath[K, V]) fail(err error) {
	s.err.CompareAndSwap(nil, &err)
}
