package dcand

import (
	"seqmine/internal/dict"
	"seqmine/internal/fst"
)

// MapFunc exposes the per-sequence map kernel to the external tests and
// benchmarks: emit receives every (pivot, serialized NFA) record of T.
func MapFunc(f *fst.FST, sigma int64, opts Options) func(T []dict.ItemID, emit func(dict.ItemID, []byte)) {
	job := buildJob(f, sigma, opts)
	return func(T []dict.ItemID, emit func(dict.ItemID, []byte)) {
		job.Map(T, func(k dict.ItemID, v value) { emit(k, v.data) })
	}
}
