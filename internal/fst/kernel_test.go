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

// CheckStepTable compares the tables of f against its label-level graph: the
// state count, the initial and the final states, then, against
// per-transition label matching item by item, the firing list of every state, the three
// predecessor masks of every state (any, ε-output and output transitions),
// and the class partition itself (two items share a class iff every label
// treats them alike). Then the byte-sliced table: present iff a row is one
// word and it fits maxByteTabWords, and every entry the OR of the masks of
// the states its byte names.
func CheckStepTable(t *testing.T, name string, f *FST) {
	t.Helper()
	d, w := f.dict, f.words
	if f.numStates != len(f.g.final) || f.initial != f.g.initial {
		t.Fatalf("%s: tables of %d states from %d, graph of %d from %d", name, f.numStates, f.initial, len(f.g.final), f.g.initial)
	}
	for q, final := range f.g.final {
		if f.IsFinal(q) != final {
			t.Fatalf("%s: IsFinal(%d) = %v, graph says %v", name, q, !final, final)
		}
	}
	classOfSig := map[string]int{}
	sigOfClass := map[int]string{}
	labels := map[Label]bool{}
	for item := dict.ItemID(0); int(item) <= d.Size(); item++ {
		var sig strings.Builder
		want := make([]uint64, f.numStates*2*w)  // predecessor masks, laid out like f.pred
		wantOut := make([]uint64, f.numStates*w) // laid out like f.outPred
		tr := int32(0)
		for q := 0; q < f.numStates; q++ {
			firing := f.Firing(q, item)
			for _, edge := range f.g.trans[q] {
				labels[Label{Kind: edge.Label.Kind, Item: edge.Label.Item, Exact: edge.Label.Exact}] = true
				if edge.Label.Matches(d, item) {
					sig.WriteByte('1')
					if len(firing) == 0 || firing[0] != tr {
						t.Fatalf("%s: Firing(%d, %d) = %v misses transition %d", name, q, item, f.Firing(q, item), tr)
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
				t.Fatalf("%s: Firing(%d, %d) = %v fires transitions that do not match", name, q, item, f.Firing(q, item))
			}
		}
		got := f.pred[f.class(item)*2*w:][:len(want)]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: item %d: predecessor mask word %d = %#x, want %#x", name, item, i, got[i], want[i])
			}
		}
		gotOut := f.outPred[f.class(item)*w:][:len(wantOut)]
		for i := range wantOut {
			if gotOut[i] != wantOut[i] {
				t.Fatalf("%s: item %d: output predecessor mask word %d = %#x, want %#x", name, item, i, gotOut[i], wantOut[i])
			}
		}
		c := f.class(item)
		if prev, ok := classOfSig[sig.String()]; ok && prev != c {
			t.Fatalf("%s: item %d is matched like class %d but sits in class %d", name, item, prev, c)
		}
		if prev, ok := sigOfClass[c]; ok && prev != sig.String() {
			t.Fatalf("%s: class %d holds items that some label tells apart (item %d)", name, c, item)
		}
		classOfSig[sig.String()], sigOfClass[c] = c, sig.String()
	}
	classes := (len(f.fireOff) - 1) / f.numStates
	if classes != len(sigOfClass) {
		t.Fatalf("%s: %d classes built, %d in use", name, classes, len(sigOfClass))
	}
	if bound := len(labels); classes > d.Size()+1 || bound < 30 && classes > 1<<bound {
		t.Fatalf("%s: %d classes exceed min(vocab+1 = %d, 2^%d labels)", name, classes, d.Size()+1, bound)
	}
	checkByteTab(t, name, f, classes)
}

// checkByteTab holds the byte-sliced table to the predecessor masks that
// CheckStepTable has just checked.
func checkByteTab(t *testing.T, name string, f *FST, classes int) {
	t.Helper()
	n, chunks := f.numStates, (f.numStates+7)/8
	if want := f.words == 1 && classes*chunks*3*256 <= maxByteTabWords; (f.byteTab != nil) != want {
		t.Fatalf("%s: %d states, %d classes: byte table built = %v, want %v", name, n, classes, f.byteTab != nil, want)
	}
	if f.byteTab == nil {
		return
	}
	if len(f.byteTab) != classes*3*chunks*256 || f.byteKind != chunks*256 {
		t.Fatalf("%s: byte table of %d words, kind %d; want %d, %d", name, len(f.byteTab), f.byteKind, classes*3*chunks*256, chunks*256)
	}
	for c := 0; c < classes; c++ {
		masks := [3]func(q int) uint64{
			func(q int) uint64 { return f.pred[(c*n+q)*2] },
			func(q int) uint64 { return f.pred[(c*n+q)*2+1] },
			func(q int) uint64 { return f.outPred[c*n+q] },
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
					if got := f.byteTab[(3*c+kind)*f.byteKind+j*256+v]; got != want {
						t.Fatalf("%s: byte table class %d kind %d chunk %d entry %#x = %#x, want %#x", name, c, kind, j, v, got, want)
					}
				}
			}
		}
	}
}

// CheckReach holds the Reach pass, its two-row form and CanAccept to the
// label-level accept matrix — the verdict always, every row when the sequence
// is accepted (a rejected sequence's rows are never read) — and then the Rows
// pass, decoded through its RowLayout (checkRows): without a pivot, and with
// every pivot among the ancestors of T's items. The buffers start dirty — the
// passes must write every word themselves.
func CheckReach(t *testing.T, name string, f *FST, T []dict.ItemID) {
	t.Helper()
	w := f.words
	accept, two := dirtyRows(len(T), w), dirtyRows(1, w)
	ref := f.AcceptMatrix(T)
	want := ref[0][f.g.initial]
	if got := f.Reach(T, accept); got != want {
		t.Fatalf("%s: Reach(%v) = %v, want %v", name, T, got, want)
	}
	if got := f.Reach(T, two); got != want {
		t.Fatalf("%s: Reach(%v) over two rows = %v, want %v", name, T, got, want)
	}
	if got := f.CanAccept(T); got != want {
		t.Fatalf("%s: CanAccept(%v) = %v, want %v", name, T, got, want)
	}
	checkRows(t, name, f, T, dict.None)
	if !want {
		return
	}
	for i := 0; i <= len(T); i++ {
		for q := 0; q < len(f.g.final); q++ {
			if bit(accept, w, i, q) != ref[i][q] {
				t.Fatalf("%s: accept[%d][%d] = %v, want %v (T=%v)", name, i, q, !ref[i][q], ref[i][q], T)
			}
		}
	}
	pivots := map[dict.ItemID]bool{}
	for _, item := range T {
		for _, k := range f.dict.Ancestors(item) {
			pivots[k] = true
		}
	}
	for k := range pivots {
		checkRows(t, name, f, T, k)
	}
}

// checkRows holds the Rows pass of T for pivot k (dict.None: no live rows)
// to the label-level references, decoding its block through RowLayout: the
// verdict always; for an accepted T every row's accept and finish bits to
// AcceptMatrix and FinishMatrix, prod to ProductiveMatrix with accept = prod ∪
// finish, live to PivotLiveMatrix with live ⊆ prod, and a packed row's item
// to T[i] (0 in the last row). It returns the number of live cells.
func checkRows(t *testing.T, name string, f *FST, T []dict.ItemID, k dict.ItemID) (live int) {
	t.Helper()
	l := f.RowLayout(k != dict.None)
	if want := f.byteTab != nil && f.numStates <= 8; l.Packed != want {
		t.Fatalf("%s: %d states, byte table %v: packed rows %v, want %v", name, f.numStates, f.byteTab != nil, l.Packed, want)
	}
	block := dirtyRows(len(T), l.Stride)
	ref := f.AcceptMatrix(T)
	got, want := f.Rows(T, k, block), ref[0][f.g.initial]
	if got != want {
		t.Fatalf("%s: Rows(%v, %d) = %v, want %v", name, T, k, got, want)
	}
	if !got {
		return 0
	}
	refs := [Live + 1][][]bool{ref, f.ProductiveMatrix(T), f.FinishMatrix(T), nil}
	if k != dict.None {
		refs[Live] = f.PivotLiveMatrix(T, k)
	}
	for i := 0; i <= len(T); i++ {
		if l.Packed {
			item := dict.None
			if i < len(T) {
				item = T[i]
			}
			if got := dict.ItemID(block[i] >> 32); got != item {
				t.Fatalf("%s: packed row %d holds item %d, want %d (T=%v)", name, i, got, item, T)
			}
		}
		for q := 0; q < len(f.g.final); q++ {
			for m, r := range refs {
				if r != nil && rowBit(block, l, i, m, q) != r[i][q] {
					t.Fatalf("%s: pivot %d: matrix %d row %d state %d = %v, want %v (T=%v)", name, k, m, i, q, !r[i][q], r[i][q], T)
				}
			}
			if ref[i][q] != (refs[Prod][i][q] || refs[Finish][i][q]) {
				t.Fatalf("%s: accept[%d][%d] = %v, but prod %v and finish %v (T=%v)", name, i, q, ref[i][q], refs[Prod][i][q], refs[Finish][i][q], T)
			}
			if k != dict.None && refs[Live][i][q] {
				if !refs[Prod][i][q] {
					t.Fatalf("%s: pivot %d: live[%d][%d] set outside prod (T=%v)", name, k, i, q, T)
				}
				live++
			}
		}
	}
	return live
}

// rowBit reports bit q of matrix m in row i of a row block at layout l.
func rowBit(block []uint64, l RowLayout, i, m, q int) bool {
	return block[i*l.Stride+l.Word[m]+q>>6]>>(l.Shift[m]+q&63)&1 != 0
}

// dirtyRows returns the rows of a matrix over T of len n at the given stride,
// every bit set.
func dirtyRows(n, stride int) []uint64 {
	rows := make([]uint64, (n+1)*stride)
	for i := range rows {
		rows[i] = ^uint64(0)
	}
	return rows
}

// bit reports bit q of row i of rows at the given stride.
func bit(rows []uint64, stride, i, q int) bool {
	return rows[i*stride+q>>6]&(1<<(uint(q)&63)) != 0
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

// kernelCases calls check on generated automata: random hierarchies ×
// generated expressions, plus expressions wide enough that a state set needs
// several words and alternations of so many distinct items that a one-word
// FST's byte table would pass maxByteTabWords. Each of the three step paths
// must be taken at least 3 times, and the byte table with packed rows (at
// most 8 states) and without.
func kernelCases(t *testing.T, seed int64, check func(rng *rand.Rand, expr string, f *FST)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var packed, byteTab, overCap, wide int
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
		switch {
		case f.words > 1:
			wide++
		case f.byteTab == nil:
			overCap++
		case f.RowLayout(false).Packed:
			packed++
		default:
			byteTab++
		}
		check(rng, expr, f)
	}
	if packed < 3 || byteTab < 3 || overCap < 3 || wide < 3 {
		t.Fatalf("automata per step path: %d byte table with packed rows, %d without, %d one-word over the cap, %d multi-word; want ≥ 3 each",
			packed, byteTab, overCap, wide)
	}
}

// randomSeq draws a sequence of up to 12 items of f's dictionary.
func randomSeq(rng *rand.Rand, f *FST) []dict.ItemID {
	T := make([]dict.ItemID, rng.Intn(13))
	for j := range T {
		T[j] = dict.ItemID(1 + rng.Intn(f.dict.Size()))
	}
	return T
}

// TestKernelMatchesLabelReference runs the reference against the kernel over
// the generated automata of kernelCases: the step table, and the backward
// passes on random sequences.
func TestKernelMatchesLabelReference(t *testing.T) {
	kernelCases(t, 5, func(rng *rand.Rand, expr string, f *FST) {
		CheckStepTable(t, expr, f)
		for s := 0; s < 25; s++ {
			CheckReach(t, expr, f, randomSeq(rng, f))
		}
	})
}

// TestPivotLiveMatchesRunOracle holds the live rows of Rows, for every item
// of the dictionary as the pivot, to the label-level run walk of
// PivotLiveMatrix (checkRows), over the generated automata of kernelCases on
// random accepted sequences. An item outside the ancestors of T's items must
// leave every row empty.
func TestPivotLiveMatchesRunOracle(t *testing.T) {
	var seqs, live, empty int
	kernelCases(t, 37, func(rng *rand.Rand, expr string, f *FST) {
		checked := 0
		for s := 0; s < 40 && checked < 4; s++ {
			T := randomSeq(rng, f)
			if !f.CanAccept(T) {
				continue
			}
			for k := dict.ItemID(1); int(k) <= f.dict.Size(); k++ {
				if checkRows(t, expr, f, T, k) > 0 {
					live++
				} else {
					empty++
				}
			}
			checked++
		}
		seqs += checked
	})
	if live < 100 || empty < 100 {
		t.Fatalf("%d sequences: %d pivots with live cells, %d without; the check is vacuous", seqs, live, empty)
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
	f := MustCompile(paperex.PatternExpression, d)
	db := paperex.DB(d)
	if n := testing.AllocsPerRun(100, func() {
		for _, T := range db {
			f.CanAccept(T)
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
