package service

import (
	"seqmine/internal/dict"
	"seqmine/internal/lru"
	"seqmine/internal/miner"
)

// resultKey identifies one query's answer. The dataset generation is part of
// the key, so replacing a dataset under the same name (a generation bump)
// can never serve stale patterns. The algorithm is included defensively:
// every backend is tested to produce identical pattern sets, but a cached
// answer must never paper over a divergence bug between backends. Execution
// knobs (workers, spill, streaming, cluster) provably do
// not affect the answer — equivalence is CI-gated at every level, and
// TestResultKeyCoversPlan fails on a plan field nobody classified — and are
// deliberately not part of the key, so a cached in-process answer serves a
// later distributed query of the same logical question.
type resultKey struct {
	dataset    string
	generation uint64
	expression string
	sigma      int64
	algorithm  Algorithm
}

// cachedResult is one cached answer. Patterns and Dict are shared, immutable
// by convention (every consumer only reads them — the HTTP layer decodes into
// fresh wire structs, the root package copies).
type cachedResult struct {
	patterns []miner.Pattern
	dict     *dict.Dictionary
}

// newResultCache builds the result cache: an lru.Cache over query answers
// whose flight lets concurrent identical queries share one mining without
// holding admission slots. capacity <= 0 disables caching and deduplication
// (the nil cache: every query mines).
func newResultCache(capacity int) *lru.Cache[resultKey, cachedResult] {
	return lru.New[resultKey, cachedResult](capacity, nil)
}
