//go:build !race

package dcand_test

const raceEnabled = false
