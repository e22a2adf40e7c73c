//go:build race

package dminer

// raceEnabled: the race detector makes sync.Pool drop items at random, so the
// steady-state allocation pin cannot hold under it.
const raceEnabled = true
