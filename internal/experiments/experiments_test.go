package experiments_test

import (
	"strings"
	"sync"
	"testing"

	"seqmine/internal/experiments"
	"seqmine/internal/miner"
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

var (
	sharedOnce sync.Once
	shared     *experiments.Suite
)

// suite returns the one suite all tests share, so a run one figure mined is
// read, not mined again, by every later figure that shows it.
func suite(t *testing.T) *experiments.Suite {
	t.Helper()
	sharedOnce.Do(func() {
		ds, err := experiments.Generate(tinyScale())
		if err != nil {
			t.Fatal(err)
		}
		shared = experiments.NewSuite(ds)
	})
	if shared == nil {
		t.Fatal("suite datasets failed to generate")
	}
	return shared
}

// figure runs one figure on the shared suite and checks its row count.
func figure(t *testing.T, f func(*experiments.Suite) (experiments.Table, error), rows int) experiments.Table {
	t.Helper()
	tab, err := f(suite(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != rows {
		t.Errorf("%s: %d rows, want %d", tab.Title, len(tab.Rows), rows)
	}
	return tab
}

// shuffleBytes reads the shuffle size of algo's run of c from the shared
// suite's run table.
func shuffleBytes(t *testing.T, algo string, c experiments.Constraint) int64 {
	t.Helper()
	n, ok := suite(t).ShuffleBytes(algo, c)
	if !ok {
		t.Fatalf("%s: no %s run in the table", c.Name, algo)
	}
	return n
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
		} else if !f.FinalsAbsorb() {
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
	tab := figure(t, experiments.TableII, 8)
	if tab.Rows[0][1] != "400" {
		t.Errorf("NYT sequence count cell = %q, want 400", tab.Rows[0][1])
	}
}

func TestTableIIIAndIV(t *testing.T) {
	figure(t, experiments.TableIII, 13)
	figure(t, experiments.TableIV, 13)
}

// TestFig9 pins the paper's shuffle-size shape (Fig. 9c) as exact bytes: on
// the loose AMZN constraints D-SEQ ships least and NAIVE most, while on the
// selective N1 the order reverses — D-SEQ ships each matching sequence whole
// to every pivot, which costs more than the few candidates the others send.
func TestFig9(t *testing.T) {
	s := suite(t)
	figure(t, experiments.Fig9a, 5)
	figure(t, experiments.Fig9b, 4)
	before, _ := s.Mined()
	figure(t, experiments.Fig9c, 2)
	if after, _ := s.Mined(); after != before {
		t.Errorf("Fig. 9c mined %d runs that Fig. 9b had already mined", after-before)
	}

	sc := tinyScale()
	amazon, nyt := experiments.AmazonConstraints(sc), experiments.NYTConstraints(sc)
	for _, want := range []struct {
		c     experiments.Constraint
		bytes map[string]int64
	}{
		{amazon[0], map[string]int64{"Naive": 7130193, "SemiNaive": 5468605, "D-CAND": 144905, "D-SEQ": 13006}},
		{amazon[3], map[string]int64{"Naive": 1283662, "SemiNaive": 803793, "D-CAND": 33417, "D-SEQ": 4391}},
		{nyt[0], map[string]int64{"D-SEQ": 1659, "D-CAND": 572, "Naive": 407, "SemiNaive": 287}},
	} {
		for algo, bytes := range want.bytes {
			if got := shuffleBytes(t, algo, want.c); got != bytes {
				t.Errorf("%s: %s shuffles %d bytes, want %d", want.c.Name, algo, got, bytes)
			}
		}
	}
}

// TestFig10 pins the ablations' shuffle shapes as exact bytes: rewriting
// never grows D-SEQ's shuffle, and minimizing the candidate NFAs shrinks D-CAND's on the
// loose A1 and T3. On N4 minimization grows it a little: merging two final
// leaves saves no edge but turns the second edge's target into a back
// reference, one byte more in the serialized NFA.
func TestFig10(t *testing.T) {
	figure(t, experiments.Fig10a, 3)
	figure(t, experiments.Fig10b, 3)

	sc := tinyScale()
	amazon, nyt := experiments.AmazonConstraints(sc), experiments.NYTConstraints(sc)
	t3 := experiments.TraditionalConstraints(sc)[0]
	for _, want := range []struct {
		c                experiments.Constraint
		plain, rewritten int64
	}{
		{amazon[0], 13108, 13006},
		{nyt[4], 133626, 133610},
		{t3, 32237, 32237},
	} {
		plain := shuffleBytes(t, "D-SEQ (no stop, no rewrites)", want.c)
		rewritten := shuffleBytes(t, "D-SEQ (no stop)", want.c)
		if rewritten > plain {
			t.Errorf("%s: rewriting grows D-SEQ's shuffle from %d to %d bytes", want.c.Name, plain, rewritten)
		}
		if plain != want.plain || rewritten != want.rewritten {
			t.Errorf("%s: D-SEQ shuffles %d bytes plain and %d rewritten, want %d and %d",
				want.c.Name, plain, rewritten, want.plain, want.rewritten)
		}
	}
	for _, want := range []struct {
		c               experiments.Constraint
		tries, minimize int64
	}{
		{amazon[0], 424569, 144905},
		{nyt[3], 231088, 233053},
		{t3, 417019, 232012},
	} {
		tries := shuffleBytes(t, "D-CAND (tries)", want.c)
		minimized := shuffleBytes(t, "D-CAND", want.c)
		if tries != want.tries || minimized != want.minimize {
			t.Errorf("%s: D-CAND shuffles %d bytes of tries and %d minimized, want %d and %d",
				want.c.Name, tries, minimized, want.tries, want.minimize)
		}
	}
}

func TestFig11TableVFig12Fig13(t *testing.T) {
	figure(t, experiments.Fig11a, 4)
	figure(t, experiments.Fig11b, 3)
	figure(t, experiments.Fig11c, 4)
	figure(t, experiments.TableV, 5)
	figure(t, experiments.Fig12, 6)
	figure(t, experiments.Fig13, 4)
}

// TestEveryRunMinedOnce runs every figure twice on the shared suite: the
// first pass mines each distinct run once, the second mines nothing.
func TestEveryRunMinedOnce(t *testing.T) {
	s := suite(t)
	var after [2]int
	for pass := range after {
		for _, f := range experiments.Figures {
			if _, err := f(s); err != nil {
				t.Fatal(err)
			}
		}
		mined, runs := s.Mined()
		if mined != runs {
			t.Fatalf("pass %d: mined %d runs for %d distinct keys", pass, mined, runs)
		}
		after[pass] = mined
	}
	if after[1] != after[0] {
		t.Errorf("the second pass mined %d runs again", after[1]-after[0])
	}
}

// TestRunsMustAgree checks that the run table compares pattern sets, not
// counts: a run missing one pattern, or with one support off, fails the
// query, and an identical run passes.
func TestRunsMustAgree(t *testing.T) {
	s := suite(t)
	n1 := experiments.NYTConstraints(tinyScale())[0]
	if _, err := experiments.TableIII(s); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func([]miner.Pattern) []miner.Pattern
		fail bool
	}{
		{"identical", func(ps []miner.Pattern) []miner.Pattern { return ps }, false},
		{"one pattern dropped", func(ps []miner.Pattern) []miner.Pattern { return ps[1:] }, true},
		{"one support off", func(ps []miner.Pattern) []miner.Pattern {
			ps[len(ps)-1].Freq++
			return ps
		}, true},
	} {
		err := s.RunEdited(tc.name, n1, tc.edit)
		if (err != nil) != tc.fail {
			t.Errorf("%s: error %v, want failure %v", tc.name, err, tc.fail)
		}
	}
}
