package lash

import (
	"seqmine/internal/dict"
	"seqmine/internal/miner"
)

// MineSequential mines the whole database on a single core (no partitioning):
// the reference the tests hold the partitioned Mine to.
func MineSequential(d *dict.Dictionary, db [][]dict.ItemID, sigma int64, c Constraint) []miner.Pattern {
	if c.MinLength <= 0 {
		c.MinLength = 1
	}
	out := minePartition(d, db, sigma, c, dict.None)
	miner.SortPatterns(out)
	return out
}
