package fst

import (
	"seqmine/internal/dict"
	"seqmine/internal/patex"
)

// The generators of kernel_test.go, for the tests of package fst_test, which
// may import the packages built on fst.
var (
	RandomDict = randomDict
	RandomExpr = randomExpr
)

// HasByteTable reports whether Reach and Productive step f on its
// byte-sliced table.
func HasByteTable(f *FST) bool { return f.byteTab != nil }

// MaxStates is the compile stage's bound on builder states.
const MaxStates = maxStates

// BuilderStates returns the number of states the Thompson builder creates
// for expression: the figure the compile stage bounds.
func BuilderStates(expression string, d *dict.Dictionary) (int, error) {
	ast, err := patex.Parse(expression)
	if err != nil {
		return 0, err
	}
	b := &builder{dict: d}
	if _, _, err = b.compile(ast, false); err == nil {
		err = b.err
	}
	return b.numState, err
}
