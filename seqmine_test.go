package seqmine_test

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"seqmine"
	"seqmine/internal/cluster"
	"seqmine/internal/datagen"
	"seqmine/internal/dict"
	"seqmine/internal/fst"
	"seqmine/internal/paperex"
	"seqmine/internal/transport"
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
	for _, algo := range []seqmine.Algorithm{seqmine.SequentialDFS, seqmine.DSeq, seqmine.DCand} {
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
	// DESQ-COUNT is a test oracle, not a served algorithm.
	for _, algo := range []seqmine.Algorithm{"bogus", "count"} {
		opts := seqmine.DefaultOptions()
		opts.Algorithm = algo
		if _, err := seqmine.Mine(db, "(b)", 1, opts); err == nil {
			t.Errorf("expected error for unknown algorithm %q", algo)
		}
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

// acceptsRef simulates the label-level graph forward over state sets, one label test
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

// TestCountMatchesFlatSweep pins CountMatches (which runs the FST's two-row
// reachability pass) against a forward simulation of its label-level graph,
// sequence by sequence, on generated data where some sequences match and
// some do not.
func TestCountMatchesFlatSweep(t *testing.T) {
	db, err := datagen.NYT(datagen.NYTConfig{NumSentences: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, expr := range []string{".*ENTITY (VERB+ NOUN+? PREP?) ENTITY.*", "(.^){2,4} NOUN"} {
		f := fst.MustCompile(expr, db.Dict)
		want := 0
		for i, T := range db.Sequences {
			acc := acceptsRef(f, T)
			if acc != f.CanAccept(T) {
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

	var queries int64
	for _, e := range svc.Metrics().Registry {
		if e.Name == "seqmine_queries_total" {
			queries += e.Value
		}
	}
	if queries != 2 {
		t.Errorf("service metrics: seqmine_queries_total = %d, want 2", queries)
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

// startWorkers brings up n cluster workers, each with its own shuffle node,
// and returns their control URLs.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		node, err := transport.NewNode("127.0.0.1:0", transport.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		srv := httptest.NewServer(cluster.NewWorker(node).Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// TestClusterMinesTheQueryExpression: a cluster query mines its own
// expression on the workers, whatever the caller left in
// ClusterOptions.Expression — Service.Mine caches the answer under the
// query's expression — and the caller's ClusterOptions stay untouched.
func TestClusterMinesTheQueryExpression(t *testing.T) {
	db := runningExampleDB(t)
	const stale = "(.)"
	staleAnswer, err := seqmine.Mine(db, stale, paperex.Sigma, seqmine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := paperex.ExpectedFrequent()
	if reflect.DeepEqual(seqmine.PatternsAsMap(db, staleAnswer.Patterns), want) {
		t.Fatal("the stale expression must have another answer than the query's")
	}

	svc := seqmine.NewService(seqmine.ServiceOptions{ResultCacheSize: 8})
	if err := svc.RegisterDatabase("ex", db); err != nil {
		t.Fatal(err)
	}
	opts := seqmine.DefaultOptions()
	opts.Cluster = &seqmine.ClusterOptions{Workers: startWorkers(t, 2), Expression: stale}
	res, qm, err := svc.Mine(context.Background(), "ex", paperex.PatternExpression, paperex.Sigma, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := seqmine.PatternsAsMap(db, res.Patterns); !reflect.DeepEqual(got, want) {
		t.Errorf("Service.Mine on the cluster = %v, want the query's answer %v", got, want)
	}
	if c := qm.Exec.Cluster; c == nil || c.Attempts != 1 || c.StoreMisses+c.StoreHits != 2 {
		t.Errorf("cluster stats = %+v, want one attempt on 2 workers", c)
	}

	res, err = seqmine.Mine(db, paperex.PatternExpression, paperex.Sigma, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := seqmine.PatternsAsMap(db, res.Patterns); !reflect.DeepEqual(got, want) {
		t.Errorf("Mine on the cluster = %v, want the query's answer %v", got, want)
	}
	if opts.Cluster.Expression != stale {
		t.Errorf("the caller's ClusterOptions were changed to %q", opts.Cluster.Expression)
	}
}
