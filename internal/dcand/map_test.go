package dcand_test

import (
	"fmt"
	"sort"
	"testing"

	"seqmine/internal/dcand"
	"seqmine/internal/dict"
	"seqmine/internal/experiments"
	"seqmine/internal/fst"
	"seqmine/internal/nfa"
	"seqmine/internal/pivot"
)

// oracleMap is the parent commit's map function: enumerate every accepting
// run on the pointer FST, drop infrequent output items (and runs that lose a
// whole set) in the callback, fold ⊕ over the run for its pivots, and AddPath
// one cut path per run and pivot into a fresh trie. It returns the sequence's
// records as "pivot:bytes" strings, sorted.
func oracleMap(f *fst.FST, sigma int64, minimize bool, T []dict.ItemID) []string {
	d := f.Dict()
	builders := map[dict.ItemID]*nfa.Builder{}
	outputs := make([][]dict.ItemID, len(T))
	var reach [][]bool
	var rec func(pos, q int)
	addRun := func() {
		var filtered [][]dict.ItemID
		for _, set := range outputs {
			if set == nil {
				continue
			}
			var kept []dict.ItemID
			for _, w := range set {
				if d.IsFrequent(w, sigma) {
					kept = append(kept, w)
				}
			}
			if kept == nil {
				return
			}
			filtered = append(filtered, kept)
		}
		for _, k := range pivot.MergeAll(filtered...) {
			var path [][]dict.ItemID
			for _, set := range filtered {
				var cut []dict.ItemID
				for _, w := range set {
					if w <= k {
						cut = append(cut, w)
					}
				}
				path = append(path, cut)
			}
			if builders[k] == nil {
				builders[k] = nfa.NewBuilder()
			}
			builders[k].AddPath(path)
		}
	}
	rec = func(pos, q int) {
		if pos == len(T) {
			if f.IsFinal(q) {
				addRun()
			}
			return
		}
		for _, tr := range f.Transitions(q) {
			if reach[pos+1][tr.To] && tr.Label.Matches(d, T[pos]) {
				outputs[pos] = tr.Label.Outputs(d, T[pos])
				rec(pos+1, tr.To)
				outputs[pos] = nil
			}
		}
	}
	if len(T) > 0 {
		reach = make([][]bool, len(T)+1)
		for i := len(T); i >= 0; i-- {
			reach[i] = make([]bool, f.NumStates())
			for q := range reach[i] {
				if i == len(T) {
					reach[i][q] = f.IsFinal(q)
					continue
				}
				for _, tr := range f.Transitions(q) {
					reach[i][q] = reach[i][q] || reach[i+1][tr.To] && tr.Label.Matches(d, T[i])
				}
			}
		}
		rec(0, f.Initial())
	}
	var records []string
	for k, b := range builders {
		automaton := b.Trie()
		if minimize {
			automaton = b.Minimize()
		}
		records = append(records, fmt.Sprintf("%d:%x", k, automaton.Serialize()))
	}
	sort.Strings(records)
	return records
}

// TestMapMatchesRunEnumerationOracle holds the flat map kernel — σ-pruned
// flat run walk, incremental per-pivot trie insertion, fused
// minimize→serialize — to the parent's per-run map, record for record: per
// input sequence the multiset of (pivot, serialized NFA) must be identical,
// tries and minimized automata alike, over the paper's constraint families on
// all three dataset shapes at three thresholds each.
func TestMapMatchesRunEnumerationOracle(t *testing.T) {
	scale := experiments.Scale{NYTSentences: 150, AmazonCustomers: 100, ClueWebSentences: 150, Workers: 1, Seed: 3}
	ds, err := experiments.Generate(scale)
	if err != nil {
		t.Fatal(err)
	}
	constraints := append(experiments.NYTConstraints(scale), experiments.AmazonConstraints(scale)...)
	constraints = append(constraints, experiments.TraditionalConstraints(scale)...)
	constraints = append(constraints,
		experiments.Constraint{Name: "T2(1,4)/NYT", Expression: experiments.T2Expr(1, 4), Dataset: "NYT"},
		experiments.Constraint{Name: "T3(1,4)/CW", Expression: experiments.T3Expr(1, 4), Dataset: "CW"},
		experiments.Constraint{Name: "T1(3)/AMZN-F", Expression: experiments.T1Expr(3), Dataset: "AMZN-F"},
	)
	records := 0
	for _, c := range constraints {
		db := c.DB(ds)
		f, err := c.Compile(ds)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		for _, sigma := range []int64{1, 3, 8} {
			for _, minimize := range []bool{true, false} {
				mapFn := dcand.MapFunc(f, sigma, dcand.Options{Minimize: minimize})
				for i, T := range db.Sequences {
					if len(T) > 14 {
						T = T[:14] // T1 has a run per position subset
					}
					var got []string
					mapFn(T, func(k dict.ItemID, data []byte) {
						got = append(got, fmt.Sprintf("%d:%x", k, data))
					})
					sort.Strings(got)
					want := oracleMap(f, sigma, minimize, T)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s sigma %d minimize %v sequence %d %v:\n got %v\nwant %v",
							c.Name, sigma, minimize, i, T, got, want)
					}
					records += len(got)
				}
			}
		}
	}
	t.Logf("%d records compared", records)
	if records < 1000 {
		t.Fatalf("only %d records compared; the test is close to vacuous", records)
	}
}

// TestMapSteadyStateAllocations: once the pooled scratch is warm, mapping a
// sequence allocates two objects — the test's own emit adapter and the one
// buffer holding the sequence's emitted bytes — not one per run, trie state,
// class or NFA. The bound leaves room for one garbage collection emptying the
// pools inside the measured window.
func TestMapSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	ds, err := experiments.Generate(experiments.Scale{NYTSentences: 1, AmazonCustomers: 200, ClueWebSentences: 1, Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := fst.MustCompile(experiments.T3Expr(1, 5), ds.AMZNF.Dict)
	for _, minimize := range []bool{true, false} {
		mapFn := dcand.MapFunc(f, 5, dcand.Options{Minimize: minimize})
		emitted := 0
		emit := func(dict.ItemID, []byte) { emitted++ }
		pass := func() {
			for _, T := range ds.AMZNF.Sequences {
				mapFn(T, emit)
			}
		}
		pass()
		if emitted < len(ds.AMZNF.Sequences) {
			t.Fatalf("only %d NFAs from %d sequences; the pin is vacuous", emitted, len(ds.AMZNF.Sequences))
		}
		perSeq := testing.AllocsPerRun(5, pass) / float64(len(ds.AMZNF.Sequences))
		t.Logf("minimize=%v: %.2f allocs per mapped sequence, %d NFAs", minimize, perSeq, emitted)
		if perSeq > 3 {
			t.Errorf("minimize=%v: %.2f allocs per mapped sequence, want 2", minimize, perSeq)
		}
	}
}
