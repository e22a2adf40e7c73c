//go:build race

package fst_test

// raceEnabled: the race detector makes sync.Pool drop items at random, so the
// steady-state allocation pins cannot hold under it.
const raceEnabled = true
