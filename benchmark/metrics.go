package main

import (
	"math"
	"sort"
)

// e2eMetric is one end-to-end metric: what a caller of the miner pays for.
// Bound is the share of the parent's median by which the metric may get
// worse before a change counts as a regression; BENCHMARK.json repeats it
// and contract_test.go keeps the two in step.
type e2eMetric struct {
	Name, Unit, Better string
	Bound              float64
}

// endToEnd is reported by every workload with --trace 0. A job is one
// compile+execute (the body of seqmine.Mine) or one HTTP round trip. The time
// metrics are those of the best of up to numSegments groups of consecutive
// schedule cycles, the allocation is that of all the whole cycles.
//
// Not listed, and reported as diagnostics instead: fail_ratio (always 0 on a
// healthy run, so it travels as the result line's failed/attempted pair),
// job_ms_p90 and peak_rss_mb (run-to-run spread of 20-40% on the shared host
// this was built on, wider than any bound the contract allows).
var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"job_ms_p50", "ms", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_job", "ms", "lower", 0.25},
	{"alloc_mb_per_job", "MB", "lower", 0.10},
}

// layerMetric is one per-layer metric of the traced run. Exact marks counts
// that repeat exactly for one seed on one commit; -compare requires them to
// be identical between two runs of the same commit.
type layerMetric struct {
	Name, Unit, Better string
	Exact              bool
}

// perLayer is reported by every workload with --trace 1. A layer a workload
// does not exercise reports 0 (for example every service.* metric outside
// serve-selective); README.md has the table of which end-to-end metric each
// of these should move on which workload.
var perLayer = []layerMetric{
	// patex, fst: probes over the workload's expressions and sequences.
	{"patex.parse_us", "us", "lower", false},
	{"fst.compile_ms", "ms", "lower", false},
	{"fst.flatten_ms", "ms", "lower", false},
	{"fst.states", "count", "lower", true},
	{"fst.transitions", "count", "lower", true},
	{"fst.canaccept_ns_per_seq", "ns", "lower", false},
	{"fst.accept_ratio", "ratio", "lower", true},
	{"fst.enum_ms", "ms", "lower", false},
	{"fst.candidates_per_seq", "count", "lower", true},
	// miner: the single-threaded baseline that also yields the reference answers.
	{"miner.dfs_seq_ms", "ms", "lower", false},
	{"miner.patterns", "count", "higher", true},
	{"miner.seq_gap_x", "x", "lower", false},
	// pivot: D-SEQ's map side in isolation.
	{"pivot.analyze_us_per_seq", "us", "lower", false},
	{"pivot.pivots_per_seq", "count", "lower", true},
	{"pivot.relevant_ratio", "ratio", "lower", true},
	{"pivot.rewrite_us_per_pair", "us", "lower", false},
	{"pivot.rewrite_shrink", "ratio", "lower", true},
	// nfa: D-CAND's representation in isolation (candidate-trie probe).
	{"nfa.build_us_per_seq", "us", "lower", false},
	{"nfa.minimize_shrink", "ratio", "lower", true},
	{"nfa.bytes_per_seq", "bytes", "lower", true},
	{"nfa.serialize_us", "us", "lower", false},
	{"nfa.deserialize_us", "us", "lower", false},
	{"nfa.mine_partition_ms", "ms", "lower", false},
	// mapreduce (incl. dseq, dcand, dminer): medians over the traced jobs of
	// the Metrics struct the engine returns.
	{"mapreduce.map_ms", "ms", "lower", false},
	{"mapreduce.shuffle_ms", "ms", "lower", false},
	{"mapreduce.reduce_ms", "ms", "lower", false},
	{"mapreduce.map_records", "count", "lower", true},
	{"mapreduce.shuffle_records", "count", "lower", true},
	{"mapreduce.combine_ratio", "ratio", "lower", true},
	{"mapreduce.shuffle_bytes", "bytes", "lower", true},
	{"mapreduce.partitions", "count", "higher", true},
	{"mapreduce.skew_x", "x", "lower", true},
	{"mapreduce.spilled_bytes", "bytes", "lower", false},
	{"mapreduce.spill_segments", "count", "lower", false},
	{"mapreduce.streamed_batches", "count", "lower", false},
	{"mapreduce.overflow_segments", "count", "lower", false},
	{"seqmine.unattributed_ms", "ms", "lower", false},
	// transport: loopback probe plus the traced jobs' socket bytes.
	{"transport.open_exchange_ms", "ms", "lower", false},
	{"transport.loopback_mb_per_s", "MB/s", "higher", false},
	{"transport.wire_bytes", "bytes", "lower", true},
	// seqdb, dict, cluster.
	{"seqdb.build_ms", "ms", "lower", false},
	{"seqdb.sequences", "count", "higher", true},
	{"seqdb.items", "count", "higher", true},
	{"dict.save_bytes", "bytes", "lower", true},
	{"dict.save_ms", "ms", "lower", false},
	{"dict.load_ms", "ms", "lower", false},
	{"cluster.bundle_bytes", "bytes", "lower", true},
	{"cluster.bundle_encode_ms", "ms", "lower", false},
	{"cluster.bundle_decode_ms", "ms", "lower", false},
	{"cluster.local_ms", "ms", "lower", false},
	{"cluster.overhead_x", "x", "lower", false},
	{"cluster.attempts_per_job", "count", "lower", true},
	{"cluster.retries", "count", "lower", true},
	{"cluster.store_put_bytes", "bytes", "lower", true},
	// service: serve-selective only.
	{"service.direct_ms_p50", "ms", "lower", false},
	{"service.http_overhead_ms", "ms", "lower", false},
	{"service.compile_ms", "ms", "lower", false},
	{"service.mine_ms", "ms", "lower", false},
	{"service.hit_ms_p50", "ms", "lower", false},
	{"service.miss_ms_p50", "ms", "lower", false},
	{"service.result_cache_hit_ratio", "ratio", "higher", true},
	{"service.fst_cache_hit_ratio", "ratio", "higher", true},
	{"service.response_kb", "kB", "lower", false},
	{"service.candidates_per_query", "count", "lower", true},
	{"service.shed", "count", "lower", true},
	// obs.
	{"obs.trace_overhead_x", "x", "lower", false},
	{"obs.spans_per_job", "count", "lower", false},
}

// minBeyond is the number of samples that must lie beyond a percentile for
// it to be reported (choosing-metrics guide, section 1).
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted (ascending).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// highestPercentile returns the highest of 50, 75, 90, 95, 99 that has at
// least minBeyond of n samples beyond it, or 0 when even the median has not.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 75, 90, 95, 99} {
		if n-int(math.Ceil(p/100*float64(n))) >= minBeyond {
			best = p
		}
	}
	return best
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
