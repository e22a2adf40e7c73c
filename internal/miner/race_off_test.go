//go:build !race

package miner_test

const raceEnabled = false
