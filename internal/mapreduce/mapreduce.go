// Package mapreduce provides a small bulk synchronous parallel engine with
// exactly one round of communication: a map phase over input splits, an
// optional per-worker combine, a hash-partitioned shuffle and a reduce phase
// over partitions. One call, Run, executes a job alone in the process or as
// one peer of a wire exchange. It stands in for the Spark/MapReduce clusters
// used in the paper; the distributed FSM algorithms (D-SEQ, D-CAND, NAIVE,
// SEMI-NAIVE) are expressed against this engine exactly as in Alg. 1 of the
// paper. The engine instruments shuffle volume and per-stage wall-clock
// times, which the experiment harness reports.
package mapreduce

import (
	"context"
	"errors"
	"io"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"seqmine/internal/obs"
)

// Config controls the parallelism of a job. The zero value uses one worker
// per available CPU for both stages and keeps the shuffle in memory.
type Config struct {
	// MapWorkers is the number of concurrent map tasks ("executor cores").
	MapWorkers int
	// ReduceWorkers is the number of concurrent reduce tasks.
	ReduceWorkers int
	// Shuffle bounds the memory of the shuffle: past Shuffle.SpillThreshold
	// buffered bytes, partitions spill to sorted temp-file segments that the
	// reduce phase merge-streams (receive side), and with
	// Shuffle.SendBufferBytes > 0 the map workers' per-peer send buffers are
	// bounded and stream while the map runs (map side). Both require the job
	// to carry a Codec. The zero value keeps everything in memory and sends
	// nothing before the map phase has ended.
	Shuffle ShuffleConfig
	// Context, when non-nil, aborts the job cooperatively: map workers stop
	// consuming inputs at input granularity, what the send buffers still
	// hold is dropped, the shuffle barrier still completes (peers receive
	// this peer's end frame, so a canceled peer never wedges the others —
	// they see only what left before the cancellation), the reduce phase is
	// skipped and the run returns the context's error. A re-executed task
	// can therefore restart promptly without leaking goroutines or CPU into
	// the dead attempt. On a wire exchange the caller should additionally
	// close the exchange on cancellation so a barrier blocked on a dead peer
	// fails fast.
	//
	// Context also carries the job's observability state (internal/obs): a
	// recorder attached with obs.WithRecorder receives mapreduce.run /
	// mapreduce.map / mapreduce.shuffle / mapreduce.spill / mapreduce.reduce
	// spans, and a remote trace context attached with obs.ContextWithRemote
	// parents them under the caller's trace.
	Context context.Context
	// Obs, when non-nil, receives engine histograms: spill-segment sizes
	// (seqmine_spill_segment_bytes) and streaming send-buffer occupancy at
	// flush time (seqmine_send_buffer_occupancy_bytes). Nil skips the
	// instrumentation entirely.
	Obs *obs.Registry
}

func (c Config) normalized() Config {
	if c.MapWorkers <= 0 {
		c.MapWorkers = runtime.NumCPU()
	}
	if c.ReduceWorkers <= 0 {
		c.ReduceWorkers = runtime.NumCPU()
	}
	if c.Context == nil {
		c.Context = context.Background()
	}
	return c
}

// Metrics describes one job execution.
type Metrics struct {
	// MapTime is the wall-clock duration of the map phase (including the
	// combine step; with a streaming shuffle the combiner runs on every
	// send-buffer flush inside this window).
	MapTime time.Duration
	// ShuffleTime is the wall-clock duration of the shuffle (sending plus
	// draining the exchange until the end-frame barrier). In barrier mode it
	// is a sub-interval of ReduceTime; with a streaming shuffle it starts
	// with the map phase and overlaps MapTime — that overlap is the point.
	ShuffleTime time.Duration
	// ReduceTime is the wall-clock duration after the map phase: the shuffle
	// tail (barrier mode: the whole shuffle) plus the reduce phase.
	ReduceTime time.Duration
	// MapOutputRecords counts key/value pairs emitted by mappers before
	// combining.
	MapOutputRecords int64
	// ShuffleRecords counts key/value pairs after combining, i.e. the records
	// that are communicated.
	ShuffleRecords int64
	// ShuffleBytes is the serialized size of the communicated records. On an
	// in-process run it is estimated by the job's SizeOf function; on a wire
	// exchange it is the actual number of bytes written to the transport
	// (ByteExchange.WireBytesOut).
	ShuffleBytes int64
	// RemoteShuffle reports whether ShuffleBytes measured real transport
	// traffic rather than the SizeOf estimate.
	RemoteShuffle bool
	// Partitions is the number of distinct keys.
	Partitions int64
	// MaxPartitionRecords is the largest number of records received by a
	// single key (partition skew indicator).
	MaxPartitionRecords int64
	// SpilledBytes is the number of shuffle bytes this peer wrote to on-disk
	// spill segments, the receive side's sorted runs (0 when the whole shuffle
	// fit in memory). With ShuffleConfig.CompressSpill it is the compressed
	// on-disk size.
	SpilledBytes int64
	// SpillCount is the number of spill segments written.
	SpillCount int64
	// StreamedBatches counts the key batches flushed out of the bounded
	// per-peer send buffers by the streaming shuffle (0 in barrier mode).
	StreamedBatches int64
	// SendOverflowSegments is always 0: only benchmark/probes.go still reads
	// it, and it leaves with the [benchmark] PR that drops
	// mapreduce.overflow_segments.
	SendOverflowSegments int64
	// StreamPeers breaks StreamedBatches down per destination peer (remote
	// destinations only; empty in barrier mode). The cluster worker copies
	// the counter into the per-peer transport stats of its job result.
	StreamPeers []PeerStreamStats `json:"stream_peers,omitempty"`
}

// PeerStreamStats is the streaming shuffle's activity toward one destination
// peer.
type PeerStreamStats struct {
	// Peer is the destination's peer index.
	Peer int `json:"peer"`
	// StreamedBatches counts key batches flushed toward the peer.
	StreamedBatches int64 `json:"streamed_batches"`
}

// Total returns the total wall-clock time of the job.
func (m Metrics) Total() time.Duration { return m.MapTime + m.ReduceTime }

// Job describes a one-round BSP computation. I is the input record type, K
// the partition key, V the communicated value and O the output type.
type Job[I any, K comparable, V any, O any] struct {
	// Map processes one input record and emits key/value pairs.
	Map func(input I, emit func(K, V))
	// Combine (optional) merges the values of one key emitted by a single map
	// worker before they are shuffled, mirroring MapReduce combiners.
	Combine func(key K, values []V) []V
	// Reduce processes one partition (all values of one key) and emits output
	// records.
	Reduce func(key K, values []V, emit func(O))
	// Hash assigns keys to reduce workers. When nil, all keys go to a single
	// reduce worker.
	Hash func(K) uint64
	// SizeOf estimates the serialized size of one key/value pair in bytes for
	// the shuffle-size metric. When nil, every record counts one byte.
	SizeOf func(K, V) int
	// Codec serializes keys and values. It is required on more than one peer
	// and for a bounded shuffle (Config.Shuffle) — spill segments use the same
	// wire encoding as the remote shuffle — and optional otherwise.
	Codec *FrameCodec[K, V]
}

// Run executes this peer's share of the job: it maps the local inputs,
// carries every combined batch to the peer that owns the batch's key
// (job.Hash modulo the peer count) and reduces the keys it owns.
//
// A nil bx means this process is the only peer: every batch goes straight into
// the shuffle accumulator, zero-copy, and the outputs are the whole job's.
// Otherwise every peer of bx calls Run with the same job over its own input
// split; job.Hash and job.Codec are then mandatory, batches for other peers
// are encoded by one sender goroutine per destination, received frames stay
// encoded until the reduce callback, and the outputs are the local
// partitions' share of the job output.
func Run[I any, K comparable, V any, O any](inputs []I, cfg Config, job Job[I, K, V, O], bx ByteExchange) ([]O, Metrics, error) {
	cfg = cfg.normalized()
	var metrics Metrics
	self, npeers := peersOf(bx)
	if npeers > 1 && job.Hash == nil {
		return nil, metrics, errPeersNeedHash
	}
	if (npeers > 1 || cfg.Shuffle.Enabled() || cfg.Shuffle.Streaming()) && job.Codec == nil {
		return nil, metrics, errShuffleNeedsCodec
	}
	runCtx, runSpan := obs.StartSpan(cfg.Context, "mapreduce.run",
		obs.Int("peer", int64(self)), obs.Int("peers", int64(npeers)))
	cfg.Context = runCtx
	defer runSpan.End()

	// The accumulator gathers the key batches this peer owns, its own and the
	// frames the other peers send; it is bounded by the spill threshold. On a
	// wire exchange a receiver goroutine drains the exchange into it
	// concurrently with the senders, so bounded transports can apply
	// backpressure without deadlock. It starts before the map phase: peers
	// with bounded send buffers deliver while this peer still maps, and even
	// with unbounded ones a peer that finishes mapping early starts sending.
	acc := newShuffleAccumulator(runCtx, cfg.Shuffle, cfg.Obs, job.Codec, job.SizeOf)
	acc.combine = job.Combine
	defer acc.cleanup()
	var recvDone chan error
	if bx != nil {
		recvDone = make(chan error, 1)
		go pprof.Do(runCtx, pprof.Labels("seqmine_stage", "shuffle_recv"), func(context.Context) {
			var accErr error
			for {
				frame, err := bx.Recv()
				if err != nil {
					if err != io.EOF && accErr == nil {
						accErr = err
					}
					recvDone <- accErr
					return
				}
				if accErr == nil { // after an error, keep draining so remote senders are not wedged
					accErr = acc.addRaw(frame)
				}
			}
		})
	}

	mapEnd, shuffleErr := runMapShuffle(inputs, cfg, job, bx, acc, recvDone, &metrics)
	if shuffleErr != nil {
		metrics.ReduceTime = time.Since(mapEnd)
		return nil, metrics, shuffleErr
	}
	if bx != nil {
		metrics.ShuffleBytes = bx.WireBytesOut()
		metrics.RemoteShuffle = true
	}
	accSpilled, accCount := acc.stats()
	metrics.SpilledBytes += accSpilled
	metrics.SpillCount += accCount

	// ---- Reduce phase ------------------------------------------------------
	if err := cfg.Context.Err(); err != nil {
		metrics.ReduceTime = time.Since(mapEnd)
		return nil, metrics, err
	}
	reduceStart := time.Now()
	out, reduceErr := reduce(cfg, job, acc, &metrics)
	obs.Observe(runCtx, "mapreduce.reduce", reduceStart, time.Since(reduceStart),
		obs.Int("partitions", metrics.Partitions))
	metrics.ReduceTime = time.Since(mapEnd)
	if reduceErr == nil {
		reduceErr = cfg.Context.Err()
	}
	if reduceErr != nil {
		return nil, metrics, reduceErr
	}
	runSpan.SetAttrInt("shuffle_bytes", metrics.ShuffleBytes)
	runSpan.SetAttrInt("spilled_bytes", metrics.SpilledBytes)
	return out, metrics, nil
}

// runMapShuffle maps the local inputs and carries every emitted record to the
// peer owning its key over the send path (stream.go): map workers emit into
// their own per-peer buffers, which are combined and handed off when they
// reach their share of Shuffle.SendBufferBytes and, for the rest, once the map
// phase has ended. It returns the end of the map phase once the shuffle
// barrier is complete (own sends flushed, every remote end frame received).
func runMapShuffle[I any, K comparable, V any, O any](inputs []I, cfg Config, job Job[I, K, V, O], bx ByteExchange, acc *shuffleAccumulator[K, V], recvDone <-chan error, metrics *Metrics) (time.Time, error) {
	ctx := cfg.Context
	sp := newSendPath(cfg, job, acc, bx)
	npeers := len(sp.dests)

	mapStart := time.Now()
	emitted := make([]int64, cfg.MapWorkers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.MapWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bufs := sp.bufs[w]
			var n int64
			emit := func(k K, v V) {
				n++
				dst := 0
				if npeers > 1 {
					dst = int(job.Hash(k) % uint64(npeers))
				}
				sp.add(&bufs[dst], dst, k, v)
			}
			for i := w; i < len(inputs) && ctx.Err() == nil; i += cfg.MapWorkers {
				job.Map(inputs[i], emit)
			}
			emitted[w] = n
			for dst := range bufs {
				sp.seal(&bufs[dst])
			}
		}(w)
	}
	wg.Wait()
	mapEnd := time.Now()
	metrics.MapTime = mapEnd.Sub(mapStart)
	for _, n := range emitted {
		metrics.MapOutputRecords += n
	}

	// Final hand-off, join the senders, then the end-frame barrier. All three
	// steps run even after an error (or cancellation) so remote peers are
	// never wedged.
	err := sp.finish()
	if cerr := ctx.Err(); cerr != nil && err == nil {
		err = cerr
	}
	if bx != nil {
		if cerr := bx.CloseSend(); cerr != nil && err == nil {
			err = cerr
		}
		if rerr := <-recvDone; rerr != nil && err == nil {
			err = rerr
		}
	}
	// With bounded buffers the shuffle runs alongside the map phase — that
	// overlap is the point; unbounded, nothing leaves before the map ends.
	shuffleStart := mapEnd
	if cfg.Shuffle.Streaming() {
		shuffleStart = mapStart
	}
	metrics.ShuffleTime = time.Since(shuffleStart)
	sp.fold(metrics)

	// The phases are recorded retroactively from the times the engine
	// already measures (the spans are free when nothing listens).
	obs.Observe(ctx, "mapreduce.map", mapStart, metrics.MapTime,
		obs.Int("records_out", metrics.MapOutputRecords))
	shuffleAttrs := []obs.Attr{obs.Int("records", metrics.ShuffleRecords)}
	if err != nil {
		shuffleAttrs = append(shuffleAttrs, obs.String("error", err.Error()))
	}
	obs.Observe(ctx, "mapreduce.shuffle", shuffleStart, metrics.ShuffleTime, shuffleAttrs...)
	return mapEnd, err
}

// peersOf returns this peer's index and the peer count of bx; a nil bx is the
// single peer 0.
func peersOf(bx ByteExchange) (self, npeers int) {
	if bx == nil {
		return 0, 1
	}
	return bx.Self(), bx.NumPeers()
}

// errPeersNeedHash rejects a multi-peer job that cannot assign key ownership
// consistently across the peers.
var errPeersNeedHash = errors.New("mapreduce: multi-peer jobs require a Hash function")

// reduce runs the one reduce loop: cfg.ReduceWorkers goroutines pull key
// groups from one feeder through a bounded channel, so a heavy partition
// occupies one worker while the others keep pulling. The feeder is the k-way
// merge over the on-disk segments and the final in-memory run when the shuffle
// spilled — this peer then never materializes its full partition set; memory
// is bounded by the spill threshold plus the in-flight groups — and a walk of
// the in-memory groups otherwise. Either way a job combiner runs once more
// over each fully assembled group, merging the equal-key records different
// peers and workers shipped (the combiner contract, reduce∘combine == reduce,
// keeps output identical).
func reduce[I any, K comparable, V any, O any](cfg Config, job Job[I, K, V, O], acc *shuffleAccumulator[K, V], metrics *Metrics) ([]O, error) {
	groups := make(chan KeyBatch[K, V], cfg.ReduceWorkers)
	outs := make([][]O, cfg.ReduceWorkers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.ReduceWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pprof.Do(cfg.Context, pprof.Labels("seqmine_stage", "reduce"), func(context.Context) {
				emit := func(o O) { outs[w] = append(outs[w], o) }
				for g := range groups {
					vs := g.Values
					if job.Combine != nil && len(vs) > 1 {
						vs = job.Combine(g.Key, vs)
					}
					job.Reduce(g.Key, vs, emit)
				}
			})
		}(w)
	}
	feed := acc.walk
	if acc.spilled() {
		feed = acc.merge
	}
	var feedErr error
	pprof.Do(cfg.Context, pprof.Labels("seqmine_stage", "shuffle_merge"), func(context.Context) {
		feedErr = feed(func(k K, vs []V) error {
			if err := cfg.Context.Err(); err != nil {
				return err // canceled: the caller discards the output
			}
			metrics.Partitions++
			if int64(len(vs)) > metrics.MaxPartitionRecords {
				metrics.MaxPartitionRecords = int64(len(vs))
			}
			groups <- KeyBatch[K, V]{Key: k, Values: vs}
			return nil
		})
	})
	close(groups)
	wg.Wait()
	if feedErr != nil {
		return nil, feedErr
	}
	var out []O
	for _, os := range outs {
		out = append(out, os...)
	}
	return out, nil
}

// HashUint64 is a convenience mixing function for integer keys
// (splitmix64-style finalizer).
func HashUint64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashString hashes a string key (FNV-1a).
func HashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
