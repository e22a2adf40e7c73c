package fst

// The generators of kernel_test.go, for the tests of package fst_test, which
// may import the packages built on fst.
var (
	RandomDict = randomDict
	RandomExpr = randomExpr
)

// HasByteTable reports whether Reach and Productive step fl on its
// byte-sliced table.
func HasByteTable(fl *Flat) bool { return fl.byteTab != nil }
