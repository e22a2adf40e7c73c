//go:build !race

package fst_test

const raceEnabled = false
