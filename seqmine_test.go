package seqmine_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"seqmine"
	"seqmine/internal/datagen"
	"seqmine/internal/dict"
	"seqmine/internal/fst"
	"seqmine/internal/paperex"
)

// runningExampleDB builds the paper's running example through the public API.
func runningExampleDB(t *testing.T) *seqmine.Database {
	t.Helper()
	h := seqmine.Hierarchy{"a1": {"A"}, "a2": {"A"}, "A": nil, "b": nil, "c": nil, "d": nil, "e": nil}
	db, err := seqmine.BuildDatabase(paperex.RawDB(), h)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestMineAllAlgorithmsAgree(t *testing.T) {
	db := runningExampleDB(t)
	want := paperex.ExpectedFrequent()
	algos := []seqmine.Algorithm{
		seqmine.SequentialDFS, seqmine.SequentialCount,
		seqmine.DSeq, seqmine.DCand, seqmine.Naive, seqmine.SemiNaive,
	}
	for _, algo := range algos {
		opts := seqmine.DefaultOptions()
		opts.Algorithm = algo
		opts.Workers = 2
		res, err := seqmine.Mine(db, paperex.PatternExpression, paperex.Sigma, opts)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		got := seqmine.PatternsAsMap(db, res.Patterns)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v = %v, want %v", algo, got, want)
		}
	}
}

func TestMineErrors(t *testing.T) {
	db := runningExampleDB(t)
	if _, err := seqmine.Mine(db, "((", 1, seqmine.DefaultOptions()); err == nil {
		t.Error("expected parse error")
	}
	if _, err := seqmine.Mine(db, "(unknown-item)", 1, seqmine.DefaultOptions()); err == nil {
		t.Error("expected unknown-item error")
	}
	if _, err := seqmine.Mine(db, "(b)", 0, seqmine.DefaultOptions()); err == nil {
		t.Error("expected error for non-positive sigma")
	}
	opts := seqmine.DefaultOptions()
	opts.Algorithm = seqmine.Algorithm(99)
	if _, err := seqmine.Mine(db, "(b)", 1, opts); err == nil {
		t.Error("expected error for unknown algorithm")
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[seqmine.Algorithm]string{
		seqmine.SequentialDFS:   "DESQ-DFS",
		seqmine.SequentialCount: "DESQ-COUNT",
		seqmine.DSeq:            "D-SEQ",
		seqmine.DCand:           "D-CAND",
		seqmine.Naive:           "Naive",
		seqmine.SemiNaive:       "SemiNaive",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), want)
		}
	}
	if seqmine.Algorithm(42).String() == "" {
		t.Error("unknown algorithm should still render")
	}
}

func TestCompileConstraintAndMatches(t *testing.T) {
	db := runningExampleDB(t)
	c, err := seqmine.CompileConstraint(db, paperex.PatternExpression)
	if err != nil {
		t.Fatal(err)
	}
	if c.Expression() != paperex.PatternExpression {
		t.Errorf("Expression() = %q", c.Expression())
	}
	// T1, T2, T4, T5 match; T3 does not.
	if got := seqmine.CountMatches(db, c); got != 4 {
		t.Errorf("CountMatches = %d, want 4", got)
	}
	res, err := seqmine.MineConstraint(db, c, paperex.Sigma, seqmine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 3 {
		t.Errorf("expected 3 frequent patterns, got %v", seqmine.PatternsAsMap(db, res.Patterns))
	}
	if res.Metrics.ShuffleRecords == 0 {
		t.Error("distributed metrics should be populated")
	}
	// DecodePattern renders item names.
	if s := seqmine.DecodePattern(db, res.Patterns[0]); s == "" {
		t.Error("DecodePattern returned an empty string")
	}
}

// acceptsRef simulates the pointer FST forward over state sets, one label test
// per transition: the reference CanAccept's step table is held to.
func acceptsRef(f *fst.FST, T []dict.ItemID) bool {
	cur := map[int]bool{f.Initial(): true}
	for _, item := range T {
		next := map[int]bool{}
		for q := range cur {
			for _, tr := range f.Transitions(q) {
				if tr.Label.Matches(f.Dict(), item) {
					next[tr.To] = true
				}
			}
		}
		cur = next
	}
	for q := range cur {
		if f.IsFinal(q) {
			return true
		}
	}
	return false
}

// TestCountMatchesFlatSweep pins CountMatches (which runs the flat FST's
// two-row reachability pass) against a forward simulation of the pointer FST,
// sequence by sequence, on generated data where some sequences match and
// some do not.
func TestCountMatchesFlatSweep(t *testing.T) {
	db, err := datagen.NYT(datagen.NYTConfig{NumSentences: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, expr := range []string{".*ENTITY (VERB+ NOUN+? PREP?) ENTITY.*", "(.^){2,4} NOUN"} {
		f := fst.MustCompile(expr, db.Dict)
		flat := f.Flatten()
		want := 0
		for i, T := range db.Sequences {
			acc := acceptsRef(f, T)
			if acc != flat.CanAccept(T) {
				t.Fatalf("%q: sequence %d: Accepts = %v, CanAccept = %v", expr, i, acc, !acc)
			}
			if acc {
				want++
			}
		}
		c, err := seqmine.CompileConstraint(db, expr)
		if err != nil {
			t.Fatal(err)
		}
		if got := seqmine.CountMatches(db, c); got != want {
			t.Errorf("%q: CountMatches = %d, want %d", expr, got, want)
		}
		if want == 0 || want == len(db.Sequences) {
			t.Errorf("%q: %d of %d sequences match; the sweep needs both outcomes", expr, want, len(db.Sequences))
		}
	}
}

func TestReadDatabaseFiles(t *testing.T) {
	dir := t.TempDir()
	seqPath := filepath.Join(dir, "sequences.txt")
	hierPath := filepath.Join(dir, "hierarchy.txt")
	seqData := "a1 c d c b\ne e a1 e a1 e b\nc d c b\na2 d b\na1 a1 b\n"
	hierData := "a1\tA\na2\tA\n"
	if err := os.WriteFile(seqPath, []byte(seqData), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(hierPath, []byte(hierData), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := seqmine.ReadDatabaseFiles(seqPath, hierPath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := seqmine.Mine(db, paperex.PatternExpression, paperex.Sigma, seqmine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := seqmine.PatternsAsMap(db, res.Patterns); !reflect.DeepEqual(got, paperex.ExpectedFrequent()) {
		t.Errorf("file-based mining = %v, want %v", got, paperex.ExpectedFrequent())
	}
	// Missing files are reported.
	if _, err := seqmine.ReadDatabaseFiles(filepath.Join(dir, "nope.txt"), ""); err == nil {
		t.Error("expected error for missing sequence file")
	}
	if _, err := seqmine.ReadDatabaseFiles(seqPath, filepath.Join(dir, "nope.txt")); err == nil {
		t.Error("expected error for missing hierarchy file")
	}
}

func TestGenerators(t *testing.T) {
	nyt, err := seqmine.GenerateNYTLike(100, 1)
	if err != nil || nyt.NumSequences() != 100 {
		t.Fatalf("GenerateNYTLike: %v, %d sequences", err, nyt.NumSequences())
	}
	amzn, err := seqmine.GenerateAmazonLike(100, 1, false)
	if err != nil || amzn.NumSequences() != 100 {
		t.Fatalf("GenerateAmazonLike: %v", err)
	}
	cw, err := seqmine.GenerateClueWebLike(100, 1)
	if err != nil || cw.NumSequences() != 100 {
		t.Fatalf("GenerateClueWebLike: %v", err)
	}
	// A realistic end-to-end run on generated data: relational phrases
	// between entities.
	res, err := seqmine.Mine(nyt, ".*ENTITY (VERB+ NOUN+? PREP?) ENTITY.*", 5, seqmine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Error("expected some frequent relational phrases on the NYT-like data")
	}
}

func TestServiceMine(t *testing.T) {
	db := runningExampleDB(t)
	svc := seqmine.NewService(seqmine.ServiceOptions{CacheSize: 16, Workers: 2})
	if err := svc.RegisterDatabase("ex", db); err != nil {
		t.Fatal(err)
	}

	want := paperex.ExpectedFrequent()
	for _, algo := range []seqmine.Algorithm{seqmine.SequentialDFS, seqmine.DSeq} {
		opts := seqmine.DefaultOptions()
		opts.Algorithm = algo
		res, qm, err := svc.Mine(context.Background(), "ex", paperex.PatternExpression, paperex.Sigma, opts)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if got := seqmine.PatternsAsMap(db, res.Patterns); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: got %v, want %v", algo, got, want)
		}
		if algo == seqmine.SequentialDFS && qm.CacheHit {
			t.Error("first query must not be a cache hit")
		}
		if algo == seqmine.DSeq && !qm.CacheHit {
			t.Error("second query with the same expression must hit the compiled-pattern cache")
		}
	}

	m := svc.Metrics()
	if m.Queries != 2 || m.CacheHits != 1 {
		t.Errorf("service metrics: queries=%d cacheHits=%d, want 2 and 1", m.Queries, m.CacheHits)
	}
	if !svc.RemoveDataset("ex") {
		t.Error("RemoveDataset should report the dataset existed")
	}
	if _, _, err := svc.Mine(context.Background(), "ex", paperex.PatternExpression, paperex.Sigma, seqmine.DefaultOptions()); err == nil {
		t.Error("mining a removed dataset should fail")
	}
}

// TestServiceMineReturnsCallersOwnPatterns: a library caller that edits the
// patterns Mine returned does not change what the result cache serves the
// next identical query.
func TestServiceMineReturnsCallersOwnPatterns(t *testing.T) {
	db := runningExampleDB(t)
	svc := seqmine.NewService(seqmine.ServiceOptions{ResultCacheSize: 8})
	if err := svc.RegisterDatabase("ex", db); err != nil {
		t.Fatal(err)
	}
	opts := seqmine.DefaultOptions()
	first, _, err := svc.Mine(context.Background(), "ex", paperex.PatternExpression, paperex.Sigma, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := first.Patterns[0]
	if len(p.Items) < 2 || p.Items[0] == p.Items[1] {
		t.Fatalf("the test needs a first pattern of two distinct items, got %v", p)
	}
	want := seqmine.PatternsAsMap(db, first.Patterns)
	p.Freq = -42
	p.Items[0] = p.Items[1]
	first.Patterns[0] = p

	second, qm, err := svc.Mine(context.Background(), "ex", paperex.PatternExpression, paperex.Sigma, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !qm.ResultCacheHit {
		t.Fatal("the repeated query missed the result cache")
	}
	if got := seqmine.PatternsAsMap(db, second.Patterns); !reflect.DeepEqual(got, want) {
		t.Errorf("after the caller edited its answer the cache serves %v, want %v", got, want)
	}
}
