//go:build !race

package dminer

const raceEnabled = false
