//go:build !race

package mapreduce

const raceEnabled = false
