package fst

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"seqmine/internal/dict"
	"seqmine/internal/paperex"
)

// The simulation kernel — item classes, predecessor masks, firing lists and
// the Reach pass built on them — is held here to a reference that shares none
// of it: one Label.Matches test per transition, the loop the kernel replaced.

// CheckStepTable compares the step table of f's Flat against per-transition
// label matching, item by item: the firing list of every state, the three
// predecessor masks of every state (any, ε-output and output transitions),
// and the class partition itself (two items share a class iff every label
// treats them alike). Then the byte-sliced table: present iff a row is one
// word and it fits maxByteTabWords, and every entry the OR of the masks of
// the states its byte names.
func CheckStepTable(t *testing.T, name string, f *FST) {
	t.Helper()
	fl, d := f.Flatten(), f.dict
	w := fl.words
	classOfSig := map[string]int{}
	sigOfClass := map[int]string{}
	labels := map[Label]bool{}
	for item := dict.ItemID(0); int(item) <= d.Size(); item++ {
		var sig strings.Builder
		want := make([]uint64, fl.numStates*2*w)  // predecessor masks, laid out like fl.pred
		wantOut := make([]uint64, fl.numStates*w) // laid out like fl.outPred
		tr := int32(0)
		for q := 0; q < fl.numStates; q++ {
			firing := fl.Firing(q, item)
			for _, edge := range f.trans[q] {
				labels[Label{Kind: edge.Label.Kind, Item: edge.Label.Item, Exact: edge.Label.Exact}] = true
				if edge.Label.Matches(d, item) {
					sig.WriteByte('1')
					if len(firing) == 0 || firing[0] != tr {
						t.Fatalf("%s: Firing(%d, %d) = %v misses transition %d", name, q, item, fl.Firing(q, item), tr)
					}
					firing = firing[1:]
					cell := edge.To*2*w + q>>6
					want[cell] |= 1 << (uint(q) & 63)
					if !edge.Label.Captured {
						want[cell+w] |= 1 << (uint(q) & 63)
					} else {
						wantOut[edge.To*w+q>>6] |= 1 << (uint(q) & 63)
					}
				} else {
					sig.WriteByte('0')
				}
				tr++
			}
			if len(firing) != 0 {
				t.Fatalf("%s: Firing(%d, %d) = %v fires transitions that do not match", name, q, item, fl.Firing(q, item))
			}
		}
		got := fl.pred[fl.class(item)*2*w:][:len(want)]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: item %d: predecessor mask word %d = %#x, want %#x", name, item, i, got[i], want[i])
			}
		}
		gotOut := fl.outPred[fl.class(item)*w:][:len(wantOut)]
		for i := range wantOut {
			if gotOut[i] != wantOut[i] {
				t.Fatalf("%s: item %d: output predecessor mask word %d = %#x, want %#x", name, item, i, gotOut[i], wantOut[i])
			}
		}
		c := fl.class(item)
		if prev, ok := classOfSig[sig.String()]; ok && prev != c {
			t.Fatalf("%s: item %d is matched like class %d but sits in class %d", name, item, prev, c)
		}
		if prev, ok := sigOfClass[c]; ok && prev != sig.String() {
			t.Fatalf("%s: class %d holds items that some label tells apart (item %d)", name, c, item)
		}
		classOfSig[sig.String()], sigOfClass[c] = c, sig.String()
	}
	classes := (len(fl.fireOff) - 1) / fl.numStates
	if classes != len(sigOfClass) {
		t.Fatalf("%s: %d classes built, %d in use", name, classes, len(sigOfClass))
	}
	if bound := len(labels); classes > d.Size()+1 || bound < 30 && classes > 1<<bound {
		t.Fatalf("%s: %d classes exceed min(vocab+1 = %d, 2^%d labels)", name, classes, d.Size()+1, bound)
	}
	checkByteTab(t, name, fl, classes)
}

// checkByteTab holds the byte-sliced table to the predecessor masks that
// CheckStepTable has just checked.
func checkByteTab(t *testing.T, name string, fl *Flat, classes int) {
	t.Helper()
	n, chunks := fl.numStates, (fl.numStates+7)/8
	if want := fl.words == 1 && classes*chunks*3*256 <= maxByteTabWords; (fl.byteTab != nil) != want {
		t.Fatalf("%s: %d states, %d classes: byte table built = %v, want %v", name, n, classes, fl.byteTab != nil, want)
	}
	if fl.byteTab == nil {
		return
	}
	if len(fl.byteTab) != classes*3*chunks*256 || fl.byteKind != chunks*256 {
		t.Fatalf("%s: byte table of %d words, kind %d; want %d, %d", name, len(fl.byteTab), fl.byteKind, classes*3*chunks*256, chunks*256)
	}
	for c := 0; c < classes; c++ {
		masks := [3]func(q int) uint64{
			func(q int) uint64 { return fl.pred[(c*n+q)*2] },
			func(q int) uint64 { return fl.pred[(c*n+q)*2+1] },
			func(q int) uint64 { return fl.outPred[c*n+q] },
		}
		for kind, mask := range masks {
			for j := 0; j < chunks; j++ {
				for v := 0; v < 256; v++ {
					var want uint64
					for b := 0; b < 8; b++ {
						if q := 8*j + b; v&(1<<b) != 0 && q < n {
							want |= mask(q)
						}
					}
					if got := fl.byteTab[(3*c+kind)*fl.byteKind+j*256+v]; got != want {
						t.Fatalf("%s: byte table class %d kind %d chunk %d entry %#x = %#x, want %#x", name, c, kind, j, v, got, want)
					}
				}
			}
		}
	}
}

// CheckReach holds one fused Reach pass, the accept-only pass and CanAccept to
// the pointer matrices: the verdict always, and every accept and finish row
// when the sequence is accepted (a rejected sequence's rows are never read) —
// and then the Productive pass over those accept rows to ProductiveMatrix,
// with accept = prod ∪ finish row by row. The buffers start dirty — the
// passes must write every word themselves.
func CheckReach(t *testing.T, name string, f *FST, T []dict.ItemID) {
	t.Helper()
	fl := f.Flatten()
	w := fl.words
	accept := make([]uint64, (len(T)+1)*w)
	finish := make([]uint64, (len(T)+1)*w)
	alone := make([]uint64, (len(T)+1)*w)
	prod := make([]uint64, (len(T)+1)*w)
	for i := range accept {
		accept[i], finish[i], alone[i], prod[i] = ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
	}
	ref, fref := f.AcceptMatrix(T), f.FinishMatrix(T)
	want := ref[0][f.initial]
	if got := fl.Reach(T, accept, finish); got != want {
		t.Fatalf("%s: Reach(%v) = %v, want %v", name, T, got, want)
	}
	if got := fl.Reach(T, alone, nil); got != want {
		t.Fatalf("%s: Reach(%v) without finish = %v, want %v", name, T, got, want)
	}
	if got := fl.CanAccept(T); got != want {
		t.Fatalf("%s: CanAccept(%v) = %v, want %v", name, T, got, want)
	}
	if !want {
		return
	}
	fl.Productive(T, accept, prod)
	pref := f.ProductiveMatrix(T)
	bit := func(rows []uint64, i, q int) bool { return rows[i*w+q>>6]&(1<<(uint(q)&63)) != 0 }
	for i := 0; i <= len(T); i++ {
		for q := 0; q < f.numStates; q++ {
			if bit(accept, i, q) != ref[i][q] || bit(alone, i, q) != ref[i][q] {
				t.Fatalf("%s: accept[%d][%d] = %v/%v, want %v (T=%v)", name, i, q, bit(accept, i, q), bit(alone, i, q), ref[i][q], T)
			}
			if bit(finish, i, q) != fref[i][q] {
				t.Fatalf("%s: finish[%d][%d] = %v, want %v (T=%v)", name, i, q, !fref[i][q], fref[i][q], T)
			}
			if bit(prod, i, q) != pref[i][q] {
				t.Fatalf("%s: prod[%d][%d] = %v, want %v (T=%v)", name, i, q, !pref[i][q], pref[i][q], T)
			}
			if ref[i][q] != (pref[i][q] || fref[i][q]) {
				t.Fatalf("%s: accept[%d][%d] = %v, but prod %v and finish %v (T=%v)", name, i, q, ref[i][q], pref[i][q], fref[i][q], T)
			}
		}
	}
}

// randomDict builds a dictionary of n items over a random DAG hierarchy (every
// item draws up to two parents among the items before it) with frequencies
// from random sequences.
func randomDict(t *testing.T, rng *rand.Rand, n int) *dict.Dictionary {
	t.Helper()
	b := dict.NewBuilder()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("i%d", i)
		var parents []string
		for p := 0; i > 0 && p < rng.Intn(3); p++ {
			parents = append(parents, names[rng.Intn(i)])
		}
		b.AddItem(names[i], parents...)
	}
	for s := 0; s < 20; s++ {
		seq := make([]string, 1+rng.Intn(6))
		for j := range seq {
			seq[j] = names[rng.Intn(n)]
		}
		b.AddSequence(seq)
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// randomExpr generates a pattern expression over the dictionary: item
// expressions of every kind (plain, exact "=", generalizing "^", forced "^=",
// dots), captured or not, under concatenation, alternation and repetition.
func randomExpr(rng *rand.Rand, d *dict.Dictionary, depth int) string {
	if depth == 0 || rng.Intn(3) == 0 {
		atom := "."
		if rng.Intn(4) > 0 {
			atom = d.Name(dict.ItemID(1 + rng.Intn(d.Size())))
		}
		if suffix := []string{"", "", "^", "=", "^="}[rng.Intn(5)]; atom != "." || suffix == "^" {
			atom += suffix
		}
		if rng.Intn(2) == 0 {
			return "(" + atom + ")"
		}
		return atom
	}
	a, b := randomExpr(rng, d, depth-1), randomExpr(rng, d, depth-1)
	switch rng.Intn(6) {
	case 0:
		return "[" + a + "|" + b + "]"
	case 1:
		return "[" + a + "]" + []string{"*", "+", "?", "{1,3}"}[rng.Intn(4)]
	default:
		return a + " " + b
	}
}

// TestKernelMatchesLabelReference runs the reference against the kernel over
// random hierarchies × generated expressions, plus expressions wide enough
// that a state set needs several words and alternations of so many distinct
// items that a one-word FST's byte table would pass maxByteTabWords. Each of
// the three step paths must be taken at least 3 times.
func TestKernelMatchesLabelReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var byteTab, overCap, wide int
	for trial := 0; trial < 60; trial++ {
		d := randomDict(t, rng, 4+rng.Intn(30))
		expr := ".*" + randomExpr(rng, d, 4) + ".*"
		switch trial % 10 {
		case 3, 7: // no trailing gap: finish rows can empty before row 0
			expr = ".*" + randomExpr(rng, d, 4)
		case 0: // more than 64 states: words > 1
			expr = fmt.Sprintf(".*[%s]{1,70} [%s]?.*", randomExpr(rng, d, 2), randomExpr(rng, d, 1))
		case 5: // one item test per item: a class per item
			d = randomDict(t, rng, 50+rng.Intn(20))
			expr = ".*" + manyItems(rng, d) + " " + randomExpr(rng, d, 2) + ".*"
		}
		f, err := Compile(expr, d)
		if err != nil {
			t.Fatalf("generated expression %q does not compile: %v", expr, err)
		}
		switch fl := f.Flatten(); {
		case fl.words > 1:
			wide++
		case fl.byteTab == nil:
			overCap++
		default:
			byteTab++
		}
		CheckStepTable(t, expr, f)
		for s := 0; s < 25; s++ {
			T := make([]dict.ItemID, rng.Intn(13))
			for j := range T {
				T[j] = dict.ItemID(1 + rng.Intn(d.Size()))
			}
			CheckReach(t, expr, f, T)
		}
	}
	if byteTab < 3 || overCap < 3 || wide < 3 {
		t.Fatalf("automata per step path: %d byte table, %d one-word over the cap, %d multi-word; want ≥ 3 each", byteTab, overCap, wide)
	}
}

// manyItems returns an alternation of every item of d, each captured or not,
// plain, exact or generalizing at random.
func manyItems(rng *rand.Rand, d *dict.Dictionary) string {
	alts := make([]string, d.Size())
	for i := range alts {
		alts[i] = d.Name(dict.ItemID(i+1)) + []string{"", "=", "^"}[rng.Intn(3)]
		if rng.Intn(2) == 0 {
			alts[i] = "(" + alts[i] + ")"
		}
	}
	return "[" + strings.Join(alts, "|") + "]"
}

// TestCanAcceptDoesNotAllocate pins the two-row verdict at zero allocations:
// callers pay it once per input sequence.
func TestCanAcceptDoesNotAllocate(t *testing.T) {
	d := paperex.Dict()
	fl := MustCompile(paperex.PatternExpression, d).Flatten()
	db := paperex.DB(d)
	if n := testing.AllocsPerRun(100, func() {
		for _, T := range db {
			fl.CanAccept(T)
		}
	}); n != 0 {
		t.Fatalf("CanAccept allocates %.0f times per database pass, want 0", n)
	}
}

// FuzzStepTable takes an expression and a sequence from the fuzzer: whatever
// compiles against the running example's dictionary must have a step table
// and Reach matrices that agree with per-transition label matching.
func FuzzStepTable(f *testing.F) {
	for _, expr := range enumPatterns {
		f.Add(expr, []byte{1, 2, 3, 4, 5, 6})
	}
	f.Add(".*(A^=) b= [c|(d^)]{1,3}.*", []byte{7, 1, 1, 2})
	f.Add("[(A)|a1=|.]{1,70}", []byte{3, 3, 3})
	d := paperex.Dict()
	f.Fuzz(func(t *testing.T, expr string, data []byte) {
		if len(expr) > 64 || len(data) > 24 {
			return
		}
		fm, err := Compile(expr, d)
		if err != nil || fm.numStates > 256 {
			return
		}
		T := make([]dict.ItemID, len(data))
		for i, c := range data {
			T[i] = dict.ItemID(int(c)%d.Size() + 1)
		}
		CheckStepTable(t, expr, fm)
		CheckReach(t, expr, fm, T)
	})
}
