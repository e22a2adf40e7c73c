package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"seqmine/internal/cluster"
	"seqmine/internal/dict"
	"seqmine/internal/fst"
	"seqmine/internal/miner"
	"seqmine/internal/nfa"
	"seqmine/internal/patex"
	"seqmine/internal/pivot"
	"seqmine/internal/service"
	"seqmine/internal/transport"
)

// probeReps is how often a timed probe repeats; the median is reported.
const probeReps = 5

// medianOf returns the median of reps measurements.
func medianOf(reps int, measure func() float64) float64 {
	vs := make([]float64, reps)
	for i := range vs {
		vs[i] = measure()
	}
	return median(vs)
}

// timeMS runs f reps times and returns the median duration in ms.
func timeMS(reps int, f func()) float64 {
	return medianOf(reps, func() float64 {
		start := time.Now()
		f()
		return ms(int64(time.Since(start)))
	})
}

// jobLayerMetrics fills the metrics read from what the traced jobs returned:
// medians over the jobs of the engine's Metrics, the cluster's job stats and
// the service's QueryMetrics.
func jobLayerMetrics(lm layerValues, w *workload, e *env, jobs []*jobResult, timedP50 float64, numSpans int) {
	med := func(f func(r *jobResult) float64) float64 {
		vs := make([]float64, len(jobs))
		for i, r := range jobs {
			vs[i] = f(r)
		}
		return median(vs)
	}
	sum := func(f func(r *jobResult) float64) float64 {
		var s float64
		for _, r := range jobs {
			s += f(r)
		}
		return s
	}
	n := float64(len(jobs))

	lm["mapreduce.map_ms"] = med(func(r *jobResult) float64 { return ms(int64(r.MR.MapTime)) })
	lm["mapreduce.shuffle_ms"] = med(func(r *jobResult) float64 { return ms(int64(r.MR.ShuffleTime)) })
	lm["mapreduce.reduce_ms"] = med(func(r *jobResult) float64 { return ms(int64(r.MR.ReduceTime)) })
	lm["mapreduce.map_records"] = med(func(r *jobResult) float64 { return float64(r.MR.MapOutputRecords) })
	lm["mapreduce.shuffle_records"] = med(func(r *jobResult) float64 { return float64(r.MR.ShuffleRecords) })
	lm["mapreduce.combine_ratio"] = ratio(sum(func(r *jobResult) float64 { return float64(r.MR.ShuffleRecords) }),
		sum(func(r *jobResult) float64 { return float64(r.MR.MapOutputRecords) }))
	lm["mapreduce.shuffle_bytes"] = med(func(r *jobResult) float64 { return float64(r.MR.ShuffleBytes) })
	lm["mapreduce.partitions"] = med(func(r *jobResult) float64 { return float64(r.MR.Partitions) })
	// Largest partition over the mean one: what bounds the gain of a second
	// reduce worker.
	lm["mapreduce.skew_x"] = med(func(r *jobResult) float64 {
		return ratio(float64(r.MR.MaxPartitionRecords)*float64(r.MR.Partitions), float64(r.MR.ShuffleRecords))
	})
	lm["mapreduce.spilled_bytes"] = med(func(r *jobResult) float64 { return float64(r.MR.SpilledBytes) })
	lm["mapreduce.spill_segments"] = med(func(r *jobResult) float64 { return float64(r.MR.SpillCount) })
	lm["mapreduce.streamed_batches"] = med(func(r *jobResult) float64 { return float64(r.MR.StreamedBatches) })
	lm["mapreduce.overflow_segments"] = med(func(r *jobResult) float64 { return float64(r.MR.SendOverflowSegments) })
	lm["transport.wire_bytes"] = med(func(r *jobResult) float64 {
		if r.MR.RemoteShuffle {
			return float64(r.MR.ShuffleBytes)
		}
		return 0
	})

	tracedP50 := med(func(r *jobResult) float64 { return ms(int64(r.Elapsed)) })
	lm["obs.trace_overhead_x"] = ratio(tracedP50, timedP50)
	lm["obs.spans_per_job"] = float64(numSpans) / n

	if e.svc == nil {
		// Map and reduce are back to back, and the compile precedes both:
		// what is left is dispatch, result merge and, on the cluster, the
		// coordinator's control traffic and the workers' own compiles.
		lm["seqmine.unattributed_ms"] = med(func(r *jobResult) float64 {
			return ms(int64(r.Elapsed - r.Compile - r.MR.MapTime - r.MR.ReduceTime))
		})
	}
	if w.Name == "cluster-stream" {
		lm["cluster.attempts_per_job"] = sum(func(r *jobResult) float64 { return float64(r.Exec.Cluster.Attempts) }) / n
		lm["cluster.retries"] = sum(func(r *jobResult) float64 { return float64(r.Exec.Cluster.Retries) })
		lm["cluster.store_put_bytes"] = sum(func(r *jobResult) float64 { return float64(r.Exec.Cluster.StorePutBytes) })
	}
	if e.svc != nil {
		var hit, miss, overhead, compile, mine []float64
		fstHits := 0.0
		for _, r := range jobs {
			if r.FSTCacheHit {
				fstHits++
			}
			if r.ResultCacheHit {
				hit = append(hit, ms(int64(r.Elapsed)))
				continue
			}
			miss = append(miss, ms(int64(r.Elapsed)))
			compile = append(compile, ms(int64(r.Compile)))
			mine = append(mine, ms(int64(r.Mine)))
			// What the caller waited beyond the service's own compile and
			// mine time: admission, JSON both ways and HTTP.
			overhead = append(overhead, ms(int64(r.Elapsed-r.Compile-r.Mine)))
		}
		lm["service.hit_ms_p50"] = median(hit)
		lm["service.miss_ms_p50"] = median(miss)
		lm["service.compile_ms"] = median(compile)
		lm["service.mine_ms"] = median(mine)
		lm["service.http_overhead_ms"] = median(overhead)
		lm["service.result_cache_hit_ratio"] = float64(len(hit)) / n
		lm["service.fst_cache_hit_ratio"] = fstHits / n
		lm["service.response_kb"] = sum(func(r *jobResult) float64 { return float64(r.ResponseBytes) }) / n / 1024
		lm["service.candidates_per_query"] = ratio(sum(func(r *jobResult) float64 { return float64(r.Exec.Candidates) }), float64(len(miss)))
		lm["service.shed"] = float64(e.svc.Metrics().Admission.ShedQueueFull)
	}
}

// runProbes times each layer in isolation, from outside, on the workload's
// first dataset and its expressions at its lowest sigma.
func runProbes(ctx context.Context, lm layerValues, w *workload, e *env, queries []query, ref map[query]uint64, cfg runConfig, timedP50 float64, d *runDetail) error {
	low := queries[0] // sigmas ascend and datasets are innermost: dataset 0, lowest sigma
	db := e.dbs[low.DB]
	exprs := w.Exprs
	numSeqs := float64(len(db.Sequences))
	var numItems float64
	for _, T := range db.Sequences {
		numItems += float64(len(T))
	}
	lm["seqdb.sequences"] = numSeqs
	lm["seqdb.items"] = numItems

	// patex, fst: per expression, cold.
	var parseUS, compileMS, flattenMS, canAcceptNS, enumMS []float64
	var states, transitions, accepted, candidates float64
	for _, expr := range exprs {
		parseUS = append(parseUS, 1000*timeMS(probeReps, func() {
			if _, err := patex.Parse(expr); err != nil {
				panic(err) // the reference pass compiled the same expression
			}
		}))
		compileMS = append(compileMS, timeMS(probeReps, func() { fst.MustCompile(expr, db.Dict) }))
		var flat *fst.Flat
		flattenMS = append(flattenMS, medianOf(probeReps, func() float64 {
			f := fst.MustCompile(expr, db.Dict) // a fresh FST: Flatten memoizes
			start := time.Now()
			flat = f.Flatten()
			flat.Sigma(low.Sigma)
			return ms(int64(time.Since(start)))
		}))
		states += float64(flat.NumStates())
		transitions += float64(flat.NumTransitions())
		hits := 0
		canAcceptNS = append(canAcceptNS, 1e6*timeMS(probeReps, func() {
			hits = 0
			for _, T := range db.Sequences {
				if flat.CanAccept(T) {
					hits++
				}
			}
		})/numSeqs)
		accepted += float64(hits)
		cands := 0
		enumMS = append(enumMS, timeMS(3, func() {
			cands = 0
			for _, T := range db.Sequences {
				flat.ForEachDistinctCandidate(T, low.Sigma, func([]dict.ItemID) bool { cands++; return true })
			}
		}))
		candidates += float64(cands)
	}
	lm["patex.parse_us"] = mean(parseUS)
	lm["fst.compile_ms"] = mean(compileMS)
	lm["fst.flatten_ms"] = mean(flattenMS)
	lm["fst.states"] = states
	lm["fst.transitions"] = transitions
	lm["fst.canaccept_ns_per_seq"] = mean(canAcceptNS)
	lm["fst.accept_ratio"] = accepted / (numSeqs * float64(len(exprs)))
	lm["fst.enum_ms"] = mean(enumMS)
	lm["fst.candidates_per_seq"] = candidates / (numSeqs * float64(len(exprs)))

	f := fst.MustCompile(low.Expr, db.Dict)
	probePivot(lm, f, db.Sequences, low.Sigma)
	if err := probeNFA(lm, f, db.Sequences, low.Sigma, db.Dict, ref[low]); err != nil {
		d.fail("nfa probe: %v", err)
	}
	if err := probeTransport(lm); err != nil {
		return fmt.Errorf("transport probe: %w", err)
	}

	// dict, cluster bundle.
	var dictText bytes.Buffer
	lm["dict.save_ms"] = timeMS(probeReps, func() {
		dictText.Reset()
		if err := db.Dict.Save(&dictText); err != nil {
			panic(err) // bytes.Buffer does not fail
		}
	})
	lm["dict.save_bytes"] = float64(dictText.Len())
	var loadErr error
	lm["dict.load_ms"] = timeMS(probeReps, func() {
		if _, err := dict.Load(bytes.NewReader(dictText.Bytes())); err != nil {
			loadErr = err
		}
	})
	if loadErr != nil {
		return fmt.Errorf("dict.Load of a saved dictionary: %w", loadErr)
	}
	var bundle []byte
	var bundleErr error
	lm["cluster.bundle_encode_ms"] = timeMS(probeReps, func() { bundle, _, bundleErr = cluster.EncodeBundle(db) })
	lm["cluster.bundle_bytes"] = float64(len(bundle))
	if bundleErr == nil {
		lm["cluster.bundle_decode_ms"] = timeMS(probeReps, func() { _, bundleErr = cluster.DecodeBundle(bundle) })
	}
	if bundleErr != nil {
		return fmt.Errorf("bundle round trip: %w", bundleErr)
	}

	if w.Name == "cluster-stream" {
		// The same jobs, shuffle bounds and engine in one process: what the
		// cluster costs on top.
		local := libraryJob(e.dbs, clusterExecOptions(cfg))
		var ts []float64
		for i := 0; i < cfg.jobs(w.TracedJobs); i++ {
			q := queries[i%len(queries)]
			r, err := local(ctx, q)
			if err != nil {
				return fmt.Errorf("local run of %s: %w", q, err)
			}
			if r.Hash != ref[q] {
				d.fail("local run of %s: answer differs from reference", q)
			}
			ts = append(ts, ms(int64(r.Elapsed)))
		}
		lm["cluster.local_ms"] = median(ts)
		lm["cluster.overhead_x"] = ratio(timedP50, lm["cluster.local_ms"])
	}
	if e.svc != nil {
		// Service.Mine without HTTP and without the result cache: every
		// distinct query once.
		svc := service.New(serviceConfig(0, nil))
		for i, db := range e.dbs {
			if _, err := svc.RegisterDataset(serveDataset(i), db); err != nil {
				return err
			}
		}
		eo := service.DefaultExecOptions()
		eo.Algorithm = service.AlgoDFS
		eo.Shards = 2
		eo.Workers = engineWorkers
		var ts []float64
		for _, q := range queries {
			start := time.Now()
			resp, err := svc.Mine(ctx, service.Query{Dataset: serveDataset(q.DB), Expression: q.Expr, Sigma: q.Sigma, Options: eo})
			if err != nil {
				return fmt.Errorf("direct Service.Mine of %s: %w", q, err)
			}
			ts = append(ts, ms(int64(time.Since(start))))
			if hashPatterns(resp.Dict, resp.Patterns) != ref[q] {
				d.fail("direct Service.Mine of %s: answer differs from reference", q)
			}
		}
		lm["service.direct_ms_p50"] = median(ts)
	}
	return nil
}

// probePivot times D-SEQ's map side: pivot search per sequence and rewriting
// per (sequence, pivot) pair.
func probePivot(lm layerValues, f *fst.FST, seqs [][]dict.ItemID, sigma int64) {
	s := pivot.NewSearcher(f, sigma, pivot.DefaultOptions())
	analyses := make([]*pivot.Analysis, len(seqs))
	lm["pivot.analyze_us_per_seq"] = 1000 * timeMS(3, func() {
		for i, T := range seqs {
			analyses[i] = s.Analyze(T)
		}
	}) / float64(len(seqs))
	var relevant, pivots, in, out float64
	lm["pivot.rewrite_us_per_pair"] = 1000 * timeMS(3, func() {
		relevant, pivots, in, out = 0, 0, 0, 0
		for i, T := range seqs {
			a := analyses[i]
			if len(a.Pivots) == 0 {
				continue
			}
			relevant++
			for _, k := range a.Pivots {
				pivots++
				in += float64(len(T))
				out += float64(len(s.Rewrite(T, a, k)))
			}
		}
	})
	lm["pivot.rewrite_us_per_pair"] = ratio(lm["pivot.rewrite_us_per_pair"], pivots)
	lm["pivot.pivots_per_seq"] = ratio(pivots, relevant)
	lm["pivot.relevant_ratio"] = relevant / float64(len(seqs))
	lm["pivot.rewrite_shrink"] = ratio(out, in)
}

// probeNFA is the candidate-trie probe of D-CAND's representation: each
// sequence's distinct candidates go, by pivot, into one nfa.Builder per
// pivot; the automata are minimized and serialized as the map side would,
// then deserialized and mined per pivot partition as the reduce side would.
// The mined set must equal the reference answer.
func probeNFA(lm layerValues, f *fst.FST, seqs [][]dict.ItemID, sigma int64, d *dict.Dictionary, want uint64) error {
	flat := f.Flatten()
	parts := map[dict.ItemID][][]byte{}
	builders := map[dict.ItemID]*nfa.Builder{}
	var (
		build, serialize   time.Duration
		relevant           float64
		trieStates, states float64
		bytesOut           float64
		path               [][]dict.ItemID
		keys, arena        []dict.ItemID
		ends               []int
	)
	for _, T := range seqs {
		// The candidates are collected first so that the enumeration (fst's
		// cost, see fst.enum_ms) stays off the builder's clock.
		arena, ends = arena[:0], ends[:0]
		flat.ForEachDistinctCandidate(T, sigma, func(cand []dict.ItemID) bool {
			arena = append(arena, cand...)
			ends = append(ends, len(arena))
			return true
		})
		if len(ends) == 0 {
			continue
		}
		relevant++
		start := time.Now()
		from := 0
		for _, end := range ends {
			cand := arena[from:end]
			from = end
			k := dict.PivotOf(cand)
			b := builders[k]
			if b == nil {
				b = nfa.NewBuilder()
				builders[k] = b
			}
			path = path[:0]
			for i := range cand {
				path = append(path, cand[i:i+1])
			}
			b.AddPath(path)
		}
		keys = keys[:0]
		for k := range builders {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		automata := make([]*nfa.NFA, len(keys))
		for i, k := range keys {
			automata[i] = builders[k].Minimize()
		}
		build += time.Since(start)

		start = time.Now()
		for i, k := range keys {
			data := automata[i].Serialize()
			parts[k] = append(parts[k], data)
			bytesOut += float64(len(data))
		}
		serialize += time.Since(start)
		for i, k := range keys {
			trieStates += float64(builders[k].Trie().NumStates())
			states += float64(automata[i].NumStates())
		}
		clear(builders)
	}
	lm["nfa.build_us_per_seq"] = ratio(float64(build.Microseconds()), relevant)
	lm["nfa.minimize_shrink"] = ratio(states, trieStates)
	lm["nfa.bytes_per_seq"] = ratio(bytesOut, relevant)
	lm["nfa.serialize_us"] = ratio(float64(serialize.Microseconds()), relevant)

	pivots := make([]dict.ItemID, 0, len(parts))
	for k := range parts {
		pivots = append(pivots, k)
	}
	sort.Slice(pivots, func(i, j int) bool { return pivots[i] < pivots[j] })
	weighted := make(map[dict.ItemID][]nfa.Weighted, len(parts))
	start := time.Now()
	for _, k := range pivots {
		for _, data := range parts[k] {
			n, err := nfa.Deserialize(data)
			if err != nil {
				return fmt.Errorf("deserializing an automaton of pivot %d: %w", k, err)
			}
			weighted[k] = append(weighted[k], nfa.Weighted{N: n, Weight: 1})
		}
	}
	lm["nfa.deserialize_us"] = ratio(float64(time.Since(start).Microseconds()), relevant)
	var mined []miner.Pattern
	start = time.Now()
	for _, k := range pivots {
		mined = append(mined, nfa.MinePartition(weighted[k], sigma, k)...)
	}
	lm["nfa.mine_partition_ms"] = ms(int64(time.Since(start)))
	if got := hashPatterns(d, mined); got != want {
		return fmt.Errorf("mined %d patterns with hash %016x, reference is %016x", len(mined), got, want)
	}
	return nil
}

// Loopback probe volume: 64 MiB in 64 KiB frames.
const (
	loopbackFrame  = 64 << 10
	loopbackFrames = 1024
)

// probeTransport opens one exchange between two nodes on loopback and
// streams loopbackFrames frames from peer 0 to peer 1.
func probeTransport(lm layerValues) error {
	var nodes [2]*transport.Node
	var addrs []string
	for i := range nodes {
		n, err := transport.NewNode("127.0.0.1:0", transport.Config{})
		if err != nil {
			return err
		}
		defer n.Close()
		nodes[i] = n
		addrs = append(addrs, n.Addr())
	}
	var exs [2]*transport.Exchange
	errs := make(chan error, 2) // one result per peer
	start := time.Now()
	for i := range nodes {
		go func() {
			var err error
			exs[i], err = nodes[i].OpenExchange("seqbench-loopback", i, addrs)
			errs <- err
		}()
	}
	for range nodes {
		if err := <-errs; err != nil {
			return err
		}
	}
	lm["transport.open_exchange_ms"] = ms(int64(time.Since(start)))
	defer exs[0].Close()
	defer exs[1].Close()

	frame := make([]byte, loopbackFrame)
	start = time.Now()
	go func() {
		for i := 0; i < loopbackFrames; i++ {
			if err := exs[0].Send(1, frame); err != nil {
				errs <- err
				return
			}
		}
		errs <- exs[0].CloseSend()
	}()
	received := 0
	for {
		data, err := exs[1].Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		received += len(data)
	}
	took := time.Since(start)
	if err := <-errs; err != nil {
		return err
	}
	// Peer 1 sends nothing, but peer 0's Recv barrier needs its end frame.
	if err := exs[1].CloseSend(); err != nil {
		return err
	}
	if received != loopbackFrame*loopbackFrames {
		return fmt.Errorf("received %d of %d bytes", received, loopbackFrame*loopbackFrames)
	}
	lm["transport.loopback_mb_per_s"] = float64(received) / (1 << 20) / took.Seconds()
	return nil
}
