package fst_test

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"seqmine/internal/dict"
	"seqmine/internal/fst"
	"seqmine/internal/paperex"
)

// decodeAll renders candidate sequences as sorted space-separated strings.
func decodeAll(d *dict.Dictionary, cands [][]dict.ItemID) []string {
	out := make([]string, 0, len(cands))
	for _, c := range cands {
		out = append(out, d.DecodeString(c))
	}
	sort.Strings(out)
	return out
}

func sorted(ss []string) []string {
	out := make([]string, 0, len(ss))
	out = append(out, ss...)
	sort.Strings(out)
	return out
}

// TestRunningExampleCandidates checks Gπex(T) for every sequence of the
// running example against Fig. 3 of the paper.
func TestRunningExampleCandidates(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	db := paperex.DB(d)

	want := [][]string{
		{"a1 c d c b", "a1 c d b", "a1 c b", "a1 d c b", "a1 c c b", "a1 d b", "a1 b"},
		{"a1 a1 b", "a1 A b", "a1 b", "a1 e b", "a1 e e b", "a1 a1 e b", "a1 A e b",
			"a1 e a1 b", "a1 e A b", "a1 e a1 e b", "a1 e A e b"},
		{},
		{"a2 d b", "a2 b"},
		{"a1 a1 b", "a1 A b", "a1 b"},
	}
	for i, T := range db {
		got := decodeAll(d, f.EnumerateCandidates(T, 0))
		if !reflect.DeepEqual(got, sorted(want[i])) {
			t.Errorf("Gπex(T%d) = %v, want %v", i+1, got, sorted(want[i]))
		}
		if got := f.CountCandidates(T, 0); got != len(want[i]) {
			t.Errorf("CountCandidates(T%d) = %d, want %d", i+1, got, len(want[i]))
		}
	}
}

// TestRunningExampleFrequentItemCandidates checks Gσπex(T) (σ=2): candidates
// containing infrequent items are excluded (crossed out in Fig. 3).
func TestRunningExampleFrequentItemCandidates(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	db := paperex.DB(d)

	want := [][]string{
		{"a1 c d c b", "a1 c d b", "a1 c b", "a1 d c b", "a1 c c b", "a1 d b", "a1 b"},
		{"a1 a1 b", "a1 A b", "a1 b"},
		{},
		{},
		{"a1 a1 b", "a1 A b", "a1 b"},
	}
	for i, T := range db {
		got := decodeAll(d, f.EnumerateCandidates(T, paperex.Sigma))
		if !reflect.DeepEqual(got, sorted(want[i])) {
			t.Errorf("Gσπex(T%d) = %v, want %v", i+1, got, sorted(want[i]))
		}
	}
}

func TestAccepts(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	db := paperex.DB(d)
	want := []bool{true, true, false, true, true}
	for i, T := range db {
		if got := f.Accepts(T); got != want[i] {
			t.Errorf("Accepts(T%d) = %v, want %v", i+1, got, want[i])
		}
	}
	if f.Accepts(nil) {
		t.Error("Accepts(empty) should be false for πex")
	}
}

func TestAcceptingRunsT5(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	T5, _ := d.EncodeSequence([]string{"a1", "a1", "b"})
	if n := f.CountAcceptingRuns(T5); n < 1 {
		t.Fatalf("expected at least one accepting run, got %d", n)
	}
	// Every accepting run must produce output sets whose Cartesian product is
	// a subset of Gπex(T5); their union must be exactly Gπex(T5).
	wantSet := map[string]bool{"a1 a1 b": true, "a1 A b": true, "a1 b": true}
	gotSet := map[string]bool{}
	f.ForEachLabelRun(T5, func(outputs [][]dict.ItemID) bool {
		var expand func(i int, cur []dict.ItemID)
		expand = func(i int, cur []dict.ItemID) {
			if i == len(outputs) {
				if len(cur) > 0 {
					gotSet[d.DecodeString(cur)] = true
				}
				return
			}
			if outputs[i] == nil {
				expand(i+1, cur)
				return
			}
			for _, w := range outputs[i] {
				expand(i+1, append(cur, w))
			}
		}
		expand(0, nil)
		return true
	})
	if !reflect.DeepEqual(gotSet, wantSet) {
		t.Errorf("run outputs generate %v, want %v", gotSet, wantSet)
	}
}

// simpleDict builds a small dictionary with hierarchy x1,x2 -> X and flat
// items y, z.
func simpleDict(t *testing.T) *dict.Dictionary {
	t.Helper()
	b := dict.NewBuilder()
	b.AddItem("x1", "X")
	b.AddItem("x2", "X")
	b.AddItem("y")
	b.AddItem("z")
	b.AddSequence([]string{"x1", "y", "z"})
	b.AddSequence([]string{"x2", "y"})
	b.AddSequence([]string{"y"})
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestItemExpressionSemantics(t *testing.T) {
	d := simpleDict(t)
	enc := func(items ...string) []dict.ItemID {
		s, err := d.EncodeSequence(items)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		pattern string
		input   []dict.ItemID
		want    []string
	}{
		{"(X)", enc("x1"), []string{"x1"}},                   // matched item, no generalization
		{"(X^)", enc("x1"), []string{"X", "x1"}},             // generalize up to X
		{"(X^=)", enc("x1"), []string{"X"}},                  // forced generalization
		{"(X=)", enc("x1"), []string{}},                      // exact: x1 != X
		{"(x1=)", enc("x1"), []string{"x1"}},                 // exact match of a leaf
		{"(.)", enc("y"), []string{"y"}},                     // wildcard capture
		{"(.^)", enc("x1"), []string{"X", "x1"}},             // wildcard with generalization
		{"X (y)", enc("x1", "y"), []string{"y"}},             // uncaptured context item
		{"(.){2}", enc("y", "z"), []string{"y z"}},           // fixed repetition
		{"(.){2}", enc("y"), []string{}},                     // too short
		{"(.){1,2}", enc("y"), []string{"y"}},                // bounded repetition
		{"(y) .* (z)", enc("y", "x1", "z"), []string{"y z"}}, // gap via .*
		{"[(y)|(z)]", enc("z"), []string{"z"}},               // alternation
		{"(X^) (y)?", enc("x2", "y"), []string{"X y", "x2 y"}},
	}
	for _, c := range cases {
		f := fst.MustCompile(c.pattern, d)
		got := decodeAll(d, f.EnumerateCandidates(c.input, 0))
		if !reflect.DeepEqual(got, sorted(c.want)) {
			t.Errorf("%q on %v = %v, want %v", c.pattern, d.DecodeSequence(c.input), got, sorted(c.want))
		}
	}
}

func TestCompileUnknownItem(t *testing.T) {
	d := simpleDict(t)
	if _, err := fst.Compile("(UNKNOWN)", d); err == nil {
		t.Fatal("expected error for unknown item in pattern")
	}
	if _, err := fst.Compile("((", d); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestCompileStructure(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	if f.NumStates() == 0 || f.NumTransitions() == 0 {
		t.Fatal("compiled FST is empty")
	}
	if f.Initial() < 0 || f.Initial() >= f.NumStates() {
		t.Fatalf("invalid initial state %d", f.Initial())
	}
	finals := 0
	for q := 0; q < f.NumStates(); q++ {
		if f.IsFinal(q) {
			finals++
		}
		for _, tr := range f.Transitions(q) {
			if tr.To < 0 || tr.To >= f.NumStates() {
				t.Fatalf("transition to invalid state %d", tr.To)
			}
		}
	}
	if finals == 0 {
		t.Fatal("compiled FST has no final states")
	}
	if f.Dict() != d {
		t.Fatal("Dict() must return the compile-time dictionary")
	}
}

func TestMaxLengthConstraint(t *testing.T) {
	// T1-style PrefixSpan constraint with lambda = 2: subsequences of length
	// 1 or 2 with arbitrary gaps. Explicit .* context is added because the FST
	// consumes the whole input sequence.
	d := simpleDict(t)
	f := fst.MustCompile("[.*(.)]{1,2}.*", d)
	T, _ := d.EncodeSequence([]string{"x1", "y", "z"})
	got := decodeAll(d, f.EnumerateCandidates(T, 0))
	want := sorted([]string{"x1", "y", "z", "x1 y", "x1 z", "y z"})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("length-2 subsequences = %v, want %v", got, want)
	}
}

func TestMaxGapConstraint(t *testing.T) {
	// T2-style constraint: gap 0 (consecutive items), length exactly 2.
	d := simpleDict(t)
	f := fst.MustCompile(".*(.)[.{0,0}(.)]{1,1}.*", d)
	T, _ := d.EncodeSequence([]string{"x1", "y", "z"})
	got := decodeAll(d, f.EnumerateCandidates(T, 0))
	want := sorted([]string{"x1 y", "y z"})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("consecutive bigrams = %v, want %v", got, want)
	}
}

// TestRunsGenerateCandidates cross-checks ForEachRun against
// EnumerateCandidates on random sequences over the paper dictionary.
func TestRunsGenerateCandidates(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(7)
		T := make([]dict.ItemID, n)
		for i := range T {
			T[i] = dict.ItemID(rng.Intn(d.Size()) + 1)
		}
		want := map[string]bool{}
		for _, c := range f.EnumerateCandidates(T, 0) {
			want[d.DecodeString(c)] = true
		}
		got := map[string]bool{}
		f.ForEachLabelRun(T, func(outputs [][]dict.ItemID) bool {
			var expand func(i int, cur []dict.ItemID)
			expand = func(i int, cur []dict.ItemID) {
				if i == len(outputs) {
					if len(cur) > 0 {
						got[d.DecodeString(cur)] = true
					}
					return
				}
				if outputs[i] == nil {
					expand(i+1, cur)
					return
				}
				for _, w := range outputs[i] {
					expand(i+1, append(cur, w))
				}
			}
			expand(0, nil)
			return true
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: runs generate %v, candidates %v (T=%v)", trial, got, want, d.DecodeSequence(T))
		}
	}
}

// TestSigmaFilterProperty: Gσπ(T) must equal Gπ(T) restricted to candidates
// whose items are all frequent.
func TestSigmaFilterProperty(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	check := func(raw []uint8) bool {
		T := make([]dict.ItemID, 0, len(raw))
		for _, v := range raw {
			T = append(T, dict.ItemID(v%7+1))
		}
		if len(T) > 8 {
			T = T[:8]
		}
		all := f.EnumerateCandidates(T, 0)
		var filtered []string
		for _, c := range all {
			ok := true
			for _, w := range c {
				if !d.IsFrequent(w, paperex.Sigma) {
					ok = false
					break
				}
			}
			if ok {
				filtered = append(filtered, d.DecodeString(c))
			}
		}
		sort.Strings(filtered)
		got := decodeAll(d, f.EnumerateCandidates(T, paperex.Sigma))
		if len(filtered) == 0 && len(got) == 0 {
			return true
		}
		return reflect.DeepEqual(got, filtered)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAcceptMatrixDimensions(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	T, _ := d.EncodeSequence([]string{"a1", "a1", "b"})
	m := f.AcceptMatrix(T)
	if len(m) != len(T)+1 {
		t.Fatalf("AcceptMatrix has %d rows, want %d", len(m), len(T)+1)
	}
	for i, row := range m {
		if len(row) != f.NumStates() {
			t.Fatalf("row %d has %d cols, want %d", i, len(row), f.NumStates())
		}
	}
	if !m[0][f.Initial()] {
		t.Error("initial coordinate should be accepting-reachable for T5")
	}
}

func TestLabelString(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile("(A^) b", d)
	var labels []string
	for q := 0; q < f.NumStates(); q++ {
		for _, tr := range f.Transitions(q) {
			labels = append(labels, tr.Label.String())
		}
	}
	joined := strings.Join(labels, " ")
	if !strings.Contains(joined, "(") || !strings.Contains(joined, "^") {
		t.Errorf("expected a captured generalizing label in %q", joined)
	}
}
