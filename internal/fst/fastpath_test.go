package fst_test

import (
	"testing"

	"seqmine/internal/datagen"
	"seqmine/internal/experiments"
	"seqmine/internal/fst"
	"seqmine/internal/seqdb"
)

// TestPaperExpressionsTakeByteTable pins the byte-sliced step of Reach and
// Productive to the expressions it exists for: Table III's T1–T3, N1–N5 and
// A1–A4 on their generated datasets, and the benchmark workloads' expressions
// on dictionaries of the workloads' sizes. A compiler change that gives one of
// them more than 64 states, or classes enough to pass the table's size cap,
// fails here rather than only as a slower benchmark.
func TestPaperExpressionsTakeByteTable(t *testing.T) {
	ds, err := experiments.Generate(experiments.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	s := experiments.SmallScale()
	var cs []experiments.Constraint
	cs = append(cs, experiments.TraditionalConstraints(s)...)
	cs = append(cs, experiments.NYTConstraints(s)...)
	cs = append(cs, experiments.AmazonConstraints(s)...)
	for _, c := range cs {
		f, err := c.Compile(ds)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		checkByteTable(t, c.Name+" on "+c.Dataset, f.Flatten())
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
			checkByteTable(t, w.name+": "+expr, fst.MustCompile(expr, db.Dict).Flatten())
		}
	}
}

func checkByteTable(t *testing.T, name string, fl *fst.Flat) {
	t.Helper()
	if fl.Words() != 1 || !fst.HasByteTable(fl) {
		t.Errorf("%s: %d states in %d-word rows, byte table %v; want one word with a table", name, fl.NumStates(), fl.Words(), fst.HasByteTable(fl))
	}
}
