// Package plan is the one declaration of a query's execution knobs. Every
// layer — the seqmine library, the seqmined daemon's defaults, a POST /mine
// body, the executor, the cluster coordinator and the job spec a worker
// receives — holds these structs by value, so a knob is declared, defaulted,
// flag-bound and serialized exactly once, here. The JSON tags are the field
// names of both the HTTP API and the coordinator→worker wire.
//
// The paper's Fig. 10 ablation toggles are deliberately not part of the plan:
// production always mines with dseq.DefaultOptions / dcand.DefaultOptions,
// and the toggles live only in those packages for internal/experiments and
// the equivalence tests.
package plan

import (
	"flag"
	"fmt"
	"strings"

	"seqmine/internal/mapreduce"
)

// Algorithm names a mining backend. The string values double as the wire
// format of the HTTP API and the job spec.
type Algorithm string

const (
	AlgoDFS       Algorithm = "dfs"
	AlgoCount     Algorithm = "count"
	AlgoDSeq      Algorithm = "dseq"
	AlgoDCand     Algorithm = "dcand"
	AlgoNaive     Algorithm = "naive"
	AlgoSemiNaive Algorithm = "seminaive"
)

// ParseAlgorithm validates an algorithm name; the empty string selects DSeq.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch a := Algorithm(strings.ToLower(s)); a {
	case "":
		return AlgoDSeq, nil
	case AlgoDFS, AlgoCount, AlgoDSeq, AlgoDCand, AlgoNaive, AlgoSemiNaive:
		return a, nil
	default:
		return "", fmt.Errorf("unknown algorithm %q", s)
	}
}

// DefaultTaskRetries is the cluster scheduler's built-in retry budget, used
// when neither the query nor the daemon sets TaskRetries.
const DefaultTaskRetries = 2

// Knobs are the inheritable execution knobs: everything a daemon can default
// (its flags) and a query can override (its POST /mine fields). For the
// numeric knobs 0 means "unset" and a negative value means "off, even if a
// default says otherwise"; see Merge.
type Knobs struct {
	// ShuffleConfig bounds the distributed backends' shuffle: when it spills
	// to disk and whether it streams through bounded send buffers. The
	// sequential backends (dfs, count) do not shuffle and ignore it.
	mapreduce.ShuffleConfig

	// TaskRetries is the cluster scheduler's retry budget: how many failed
	// attempts it relaunches on the surviving workers before the job fails.
	// 0 falls through to DefaultTaskRetries, negative disables retries.
	// In-process runs never retry and ignore it.
	TaskRetries int `json:"task_retries,omitempty"`
}

// Plan is one query's complete execution plan: what to run plus the knobs.
type Plan struct {
	// Algorithm selects the backend miner; empty means D-SEQ.
	Algorithm Algorithm `json:"algorithm,omitempty"`
	// Workers bounds the worker pool mining the query in this process; 0 uses
	// all CPUs. It is never serialized: cluster workers size their own
	// engines.
	Workers int `json:"-"`
	// Shards is never read; it leaves with the [benchmark] PR that stops setting it.
	Shards int `json:"shards,omitempty"`

	Knobs
}

// Merge returns k with every unset knob taken from the defaults d. It is the
// one precedence rule of the system (query > daemon default > built-in): 0,
// "" and false inherit d's value, anything else wins. A negative value is
// therefore never overwritten, and every consumer reads <= 0 as "off", so
// negative forces spilling, streaming or retries off regardless of d. Merge
// is idempotent and chains.
func (k Knobs) Merge(d Knobs) Knobs {
	k.CompressSpill = k.CompressSpill || d.CompressSpill
	inherit(&k.SpillThreshold, d.SpillThreshold)
	inherit(&k.SpillTmpDir, d.SpillTmpDir)
	inherit(&k.SendBufferBytes, d.SendBufferBytes)
	inherit(&k.TaskRetries, d.TaskRetries)
	return k
}

func inherit[T comparable](v *T, def T) {
	var unset T
	if *v == unset {
		*v = def
	}
}

// RetryBudget is the number of relaunches the scheduler may spend on the job:
// TaskRetries when positive, none when negative, DefaultTaskRetries when
// nobody set it.
func (k Knobs) RetryBudget() int {
	switch {
	case k.TaskRetries > 0:
		return k.TaskRetries
	case k.TaskRetries < 0:
		return 0
	default:
		return DefaultTaskRetries
	}
}

// BindFlags declares the knobs' command-line flags on fs, storing into k.
// seqmine, seqmined and seqmine-worker all call it, so a flag has one name,
// one default and one help text everywhere; each usage string names the
// POST /mine field that overrides the flag per query.
func (k *Knobs) BindFlags(fs *flag.FlagSet) {
	fs.Int64Var(&k.SpillThreshold, "spill-threshold", 0, `shuffle bytes a peer holds in memory before spilling sorted runs to disk (distributed algorithms; 0 = never spill; per query: "spill_threshold_bytes", negative = in memory)`)
	fs.StringVar(&k.SpillTmpDir, "spill-dir", "", "directory for shuffle spill segments of this process (default: system temp dir)")
	fs.Int64Var(&k.SendBufferBytes, "send-buffer", 0, `per-peer streaming send-buffer bytes: map workers stream the shuffle while mapping instead of after a barrier (distributed algorithms; 0 = barrier mode; per query: "send_buffer_bytes", negative = barrier)`)
	fs.BoolVar(&k.CompressSpill, "compress-spill", false, `DEFLATE-compress shuffle spill segments (per query: "compress_spill")`)
	fs.IntVar(&k.TaskRetries, "task-retries", 0, `cluster runs: failed attempts relaunched on surviving workers (0 = built-in 2, negative = no retries; per query: "task_retries")`)
}
