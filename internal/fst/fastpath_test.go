package fst_test

import (
	"testing"

	"seqmine/internal/datagen"
	"seqmine/internal/dict"
	"seqmine/internal/experiments"
	"seqmine/internal/fst"
	"seqmine/internal/seqdb"
)

// paperExpr is one of Table III's expressions or a benchmark workload's,
// with the dictionary it is compiled against.
type paperExpr struct {
	name, expr string
	dict       *dict.Dictionary
}

// paperExpressions returns Table III's T1–T3, N1–N5 and A1–A4 on their
// generated datasets and the benchmark workloads' expressions on
// dictionaries of the workloads' sizes.
func paperExpressions(t *testing.T) []paperExpr {
	t.Helper()
	s := experiments.SmallScale()
	ds, err := experiments.Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	var cs []experiments.Constraint
	cs = append(cs, experiments.TraditionalConstraints(s)...)
	cs = append(cs, experiments.NYTConstraints(s)...)
	cs = append(cs, experiments.AmazonConstraints(s)...)
	var out []paperExpr
	for _, c := range cs {
		out = append(out, paperExpr{c.Name + " on " + c.Dataset, c.Expression, c.DB(ds).Dict})
	}

	workloads := []struct {
		name  string
		exprs []string
		gen   func() ([][]string, seqdb.Hierarchy)
	}{
		{"dseq-loose, dcand-loose", []string{experiments.T3Expr(1, 5)}, func() ([][]string, seqdb.Hierarchy) {
			return datagen.AmazonRaw(datagen.AmazonConfig{NumCustomers: 2500, Seed: 1, Forest: true})
		}},
		{"serve-selective", []string{experiments.N1Expr, experiments.N2Expr, experiments.N3Expr}, func() ([][]string, seqdb.Hierarchy) {
			return datagen.NYTRaw(datagen.NYTConfig{NumSentences: 30000, Seed: 1})
		}},
		{"cluster-stream", []string{experiments.T2Expr(0, 5)}, func() ([][]string, seqdb.Hierarchy) {
			return datagen.ClueWebRaw(datagen.ClueWebConfig{NumSentences: 4000, Seed: 1})
		}},
	}
	for _, w := range workloads {
		db, err := seqdb.Build(w.gen())
		if err != nil {
			t.Fatal(err)
		}
		for _, expr := range w.exprs {
			out = append(out, paperExpr{w.name + ": " + expr, expr, db.Dict})
		}
	}
	return out
}

// TestPaperExpressionsTakeByteTable pins the byte-sliced step of Reach and
// Productive to the expressions it exists for (paperExpressions). A compiler
// change that gives one of them more than 64 states, or classes enough to
// pass the table's size cap, fails here rather than only as a slower
// benchmark.
func TestPaperExpressionsTakeByteTable(t *testing.T) {
	for _, e := range paperExpressions(t) {
		f, err := fst.Compile(e.expr, e.dict)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if f.Words() != 1 || !fst.HasByteTable(f) {
			t.Errorf("%s: %d states in %d-word rows, byte table %v; want one word with a table", e.name, f.NumStates(), f.Words(), fst.HasByteTable(f))
		}
	}
}

// TestPaperExpressionsHaveHeadroom holds the compile stage's state bound to
// at least ten times the builder states of every paper and workload
// expression: the bound stops hostile nesting, never a real constraint.
func TestPaperExpressionsHaveHeadroom(t *testing.T) {
	most := ""
	top := 0
	for _, e := range paperExpressions(t) {
		n, err := fst.BuilderStates(e.expr, e.dict)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if n > top {
			most, top = e.name, n
		}
	}
	t.Logf("most builder states: %s, %d", most, top)
	if 10*top > fst.MaxStates {
		t.Fatalf("%s needs %d builder states: less than 10× headroom under the bound of %d", most, top, fst.MaxStates)
	}
}
