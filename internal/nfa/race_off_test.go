//go:build !race

package nfa_test

const raceEnabled = false
