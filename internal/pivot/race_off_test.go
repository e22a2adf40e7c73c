//go:build !race

package pivot_test

const raceEnabled = false
