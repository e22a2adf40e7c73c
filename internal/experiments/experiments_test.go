package experiments_test

import (
	"strings"
	"testing"

	"seqmine/internal/experiments"
)

// tinyScale keeps the experiment tests fast.
func tinyScale() experiments.Scale {
	return experiments.Scale{NYTSentences: 400, AmazonCustomers: 300, ClueWebSentences: 400, Workers: 2, Seed: 1}
}

func generate(t *testing.T) *experiments.Datasets {
	t.Helper()
	ds, err := experiments.Generate(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestConstraintDefinitions(t *testing.T) {
	s := tinyScale()
	ds := generate(t)
	all := append(experiments.NYTConstraints(s), experiments.AmazonConstraints(s)...)
	all = append(all, experiments.TraditionalConstraints(s)...)
	if len(all) != 13 {
		t.Fatalf("expected 13 constraints (N1-N5, A1-A4, T3x2, T2, T1), got %d", len(all))
	}
	for _, c := range all {
		if c.Sigma < 2 {
			t.Errorf("%s: sigma %d too small", c.Name, c.Sigma)
		}
		f, err := c.Compile(ds)
		if err != nil {
			t.Errorf("%s: %v", c.Name, err)
		} else if !f.Flatten().FinalsAbsorb() {
			// Every Table III expression ends in .*: D-SEQ cuts the tail.
			t.Errorf("%s: final states do not absorb the tail", c.Name)
		}
		if c.DB(ds) == nil {
			t.Errorf("%s: no dataset", c.Name)
		}
	}
}

func TestExprBuilders(t *testing.T) {
	if got := experiments.T1Expr(5); got != "[.*(.)]{1,5}.*" {
		t.Errorf("T1Expr = %q", got)
	}
	if got := experiments.T2Expr(1, 5); got != ".*(.)[.{0,1}(.)]{1,4}.*" {
		t.Errorf("T2Expr = %q", got)
	}
	if got := experiments.T3Expr(2, 6); got != ".*(.^)[.{0,2}(.^)]{1,5}.*" {
		t.Errorf("T3Expr = %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	tab := experiments.Table{Title: "demo", Header: []string{"a", "bb"}}
	tab.Add("1", "2")
	tab.Note("a note")
	text := tab.String()
	if !strings.Contains(text, "demo") || !strings.Contains(text, "note: a note") {
		t.Errorf("text rendering missing parts:\n%s", text)
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| a | bb |") || !strings.Contains(md, "| 1 | 2 |") {
		t.Errorf("markdown rendering missing parts:\n%s", md)
	}
}

func TestTableII(t *testing.T) {
	ds := generate(t)
	tab := experiments.TableII(ds)
	if len(tab.Rows) != 8 {
		t.Fatalf("Table II should have 8 rows, got %d", len(tab.Rows))
	}
	if tab.Rows[0][1] != "400" {
		t.Errorf("NYT sequence count cell = %q, want 400", tab.Rows[0][1])
	}
}

func TestTableIIIAndIV(t *testing.T) {
	ds := generate(t)
	t3, err := experiments.TableIII(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 13 {
		t.Errorf("Table III should have one row per constraint, got %d", len(t3.Rows))
	}
	t4, err := experiments.TableIV(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Rows) != 13 {
		t.Errorf("Table IV should have one row per constraint, got %d", len(t4.Rows))
	}
}

func TestFig9(t *testing.T) {
	ds := generate(t)
	a, err := experiments.Fig9a(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 5 {
		t.Errorf("Fig 9a should have 5 rows, got %d", len(a.Rows))
	}
	b, err := experiments.Fig9b(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 4 {
		t.Errorf("Fig 9b should have 4 rows, got %d", len(b.Rows))
	}
	c, err := experiments.Fig9c(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Rows) != 2 {
		t.Errorf("Fig 9c should have 2 rows, got %d", len(c.Rows))
	}
}

func TestFig10(t *testing.T) {
	ds := generate(t)
	a, err := experiments.Fig10a(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 3 {
		t.Errorf("Fig 10a should have 3 rows, got %d", len(a.Rows))
	}
	b, err := experiments.Fig10b(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 3 {
		t.Errorf("Fig 10b should have 3 rows, got %d", len(b.Rows))
	}
}

func TestFig11TableVFig12Fig13(t *testing.T) {
	ds := generate(t)
	f11a, err := experiments.Fig11a(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(f11a.Rows) != 4 {
		t.Errorf("Fig 11a should have 4 rows, got %d", len(f11a.Rows))
	}
	f11b, err := experiments.Fig11b(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(f11b.Rows) != 3 {
		t.Errorf("Fig 11b should have 3 rows, got %d", len(f11b.Rows))
	}
	f11c, err := experiments.Fig11c(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(f11c.Rows) != 4 {
		t.Errorf("Fig 11c should have 4 rows, got %d", len(f11c.Rows))
	}
	tv, err := experiments.TableV(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(tv.Rows) != 5 {
		t.Errorf("Table V should have 5 rows, got %d", len(tv.Rows))
	}
	f12, err := experiments.Fig12(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(f12.Rows) != 6 {
		t.Errorf("Fig 12 should have 6 rows, got %d", len(f12.Rows))
	}
	f13, err := experiments.Fig13(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(f13.Rows) != 4 {
		t.Errorf("Fig 13 should have 4 rows, got %d", len(f13.Rows))
	}
}
