package experiments

import (
	"seqmine/internal/fst"
	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
	"seqmine/internal/seqdb"
)

// Figures lists every table and figure in RunAll's order.
var Figures = figures

// Mined reports how many runs the suite has mined and how many distinct runs
// its table holds.
func (s *Suite) Mined() (mined, runs int) { return s.mined, len(s.table) }

// ShuffleBytes returns the shuffle size of the named algorithm's run of c on
// the suite's worker count, and false if the table holds no such run.
func (s *Suite) ShuffleBytes(algo string, c Constraint) (int64, bool) {
	r, ok := s.table[runKey{algo, s.query(c), s.ds.Scale.Workers}]
	if !ok {
		return 0, false
	}
	return r.metrics.ShuffleBytes, true
}

// RunEdited runs c with an algorithm named name that returns D-SEQ's patterns
// passed through edit, and reports the run table's verdict.
func (s *Suite) RunEdited(name string, c Constraint, edit func([]miner.Pattern) []miner.Pattern) error {
	a := algo{name, func(f *fst.FST, db *seqdb.Database, sigma int64, cfg mapreduce.Config) ([]miner.Pattern, mapreduce.Metrics, error) {
		ps, m, err := dseqRun.mine(f, db, sigma, cfg)
		return edit(ps), m, err
	}}
	_, err := s.mine(c, a)
	return err
}
