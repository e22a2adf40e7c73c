package dict_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"seqmine/internal/dict"
	"seqmine/internal/paperex"
)

// buildRunningExample builds the Fig. 2 dictionary through the Builder (its
// own tie-break, which may differ from the paper's arbitrary one for equal
// frequencies, is irrelevant for these assertions).
func buildRunningExample(t *testing.T) *dict.Dictionary {
	t.Helper()
	b := dict.NewBuilder()
	b.AddItem("a1", "A")
	b.AddItem("a2", "A")
	for _, name := range []string{"A", "b", "c", "d", "e"} {
		b.AddItem(name)
	}
	for _, seq := range paperex.RawDB() {
		b.AddSequence(seq)
	}
	d, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return d
}

func TestBuilderDocumentFrequencies(t *testing.T) {
	d := buildRunningExample(t)
	want := map[string]int64{"b": 5, "A": 4, "d": 3, "a1": 3, "c": 2, "e": 1, "a2": 1}
	for name, freq := range want {
		fid, ok := d.Fid(name)
		if !ok {
			t.Fatalf("item %q missing", name)
		}
		if got := d.DocFreq(fid); got != freq {
			t.Errorf("f(%s) = %d, want %d", name, got, freq)
		}
	}
	if d.Size() != 7 {
		t.Errorf("Size = %d, want 7", d.Size())
	}
}

func TestBuilderFrequencyOrder(t *testing.T) {
	d := buildRunningExample(t)
	// fids must be ordered by non-increasing document frequency.
	for fid := dict.ItemID(2); int(fid) <= d.Size(); fid++ {
		if d.DocFreq(fid) > d.DocFreq(fid-1) {
			t.Errorf("fid %d (%s, f=%d) more frequent than fid %d (%s, f=%d)",
				fid, d.Name(fid), d.DocFreq(fid), fid-1, d.Name(fid-1), d.DocFreq(fid-1))
		}
	}
	// b is the most frequent item, so it must have fid 1.
	if b := d.MustFid("b"); b != 1 {
		t.Errorf("fid(b) = %d, want 1", b)
	}
	// A is the second most frequent.
	if a := d.MustFid("A"); a != 2 {
		t.Errorf("fid(A) = %d, want 2", a)
	}
}

func TestPaperFixtureOrder(t *testing.T) {
	d := paperex.Dict()
	want := []string{"b", "A", "d", "a1", "c", "e", "a2"}
	for i, name := range want {
		fid := dict.ItemID(i + 1)
		if d.Name(fid) != name {
			t.Errorf("fid %d = %q, want %q", fid, d.Name(fid), name)
		}
	}
	wantFreq := []int64{5, 4, 3, 3, 2, 1, 1}
	for i, f := range wantFreq {
		if got := d.DocFreq(dict.ItemID(i + 1)); got != f {
			t.Errorf("DocFreq(%d) = %d, want %d", i+1, got, f)
		}
	}
}

func TestAncestors(t *testing.T) {
	d := paperex.Dict()
	a1, a2, A := d.MustFid("a1"), d.MustFid("a2"), d.MustFid("A")
	if got := d.Ancestors(a1); !reflect.DeepEqual(got, []dict.ItemID{A, a1}) {
		t.Errorf("anc(a1) = %v, want [%d %d]", got, A, a1)
	}
	if got := d.Ancestors(A); !reflect.DeepEqual(got, []dict.ItemID{A}) {
		t.Errorf("anc(A) = %v, want [%d]", got, A)
	}
	if !d.IsA(a1, A) || !d.IsA(a2, A) || !d.IsA(A, A) {
		t.Error("a1, a2 and A must all be descendants of A")
	}
	if d.IsA(A, a1) {
		t.Error("A must not be a descendant of a1")
	}
	if d.IsA(d.MustFid("b"), A) {
		t.Error("b must not be a descendant of A")
	}
	// Children of A are a1 and a2 (in fid order).
	kids := d.Children(A)
	if len(kids) != 2 || kids[0] != d.MustFid("a1") || kids[1] != d.MustFid("a2") {
		t.Errorf("children(A) = %v", kids)
	}
}

func TestAncestorsUpTo(t *testing.T) {
	d := paperex.Dict()
	a1, A, b := d.MustFid("a1"), d.MustFid("A"), d.MustFid("b")
	got := d.AncestorsUpTo(a1, A)
	want := []dict.ItemID{A, a1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AncestorsUpTo(a1, A) = %v, want %v", got, want)
	}
	if got := d.AncestorsUpTo(a1, a1); !reflect.DeepEqual(got, []dict.ItemID{a1}) {
		t.Errorf("AncestorsUpTo(a1, a1) = %v", got)
	}
	if got := d.AncestorsUpTo(b, A); got != nil {
		t.Errorf("AncestorsUpTo(b, A) = %v, want nil", got)
	}
}

func TestEncodeDecode(t *testing.T) {
	d := paperex.Dict()
	seq, err := d.EncodeSequence([]string{"a1", "c", "d", "c", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.DecodeString(seq); got != "a1 c d c b" {
		t.Errorf("DecodeString = %q", got)
	}
	if _, err := d.EncodeSequence([]string{"nope"}); err == nil {
		t.Error("expected error for unknown item")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := buildRunningExample(t)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := dict.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Size() != d.Size() {
		t.Fatalf("size mismatch: %d vs %d", d2.Size(), d.Size())
	}
	for fid := dict.ItemID(1); int(fid) <= d.Size(); fid++ {
		if d.Name(fid) != d2.Name(fid) {
			t.Errorf("name mismatch at fid %d: %q vs %q", fid, d.Name(fid), d2.Name(fid))
		}
		if d.DocFreq(fid) != d2.DocFreq(fid) {
			t.Errorf("freq mismatch at fid %d", fid)
		}
		if !reflect.DeepEqual(d.Ancestors(fid), d2.Ancestors(fid)) {
			t.Errorf("ancestors mismatch at fid %d", fid)
		}
	}
}

func TestLoadRejectsCycle(t *testing.T) {
	const text = "x\t1\ty\ny\t1\tx\n"
	if _, err := dict.Load(bytes.NewReader([]byte(text))); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestLoadRejectsUnknownParent(t *testing.T) {
	const text = "x\t1\tmissing\n"
	if _, err := dict.Load(bytes.NewReader([]byte(text))); err == nil {
		t.Fatal("expected unknown-parent error")
	}
}

func TestHierarchyStats(t *testing.T) {
	d := paperex.Dict()
	if got := d.MaxAncestors(); got != 1 {
		t.Errorf("MaxAncestors = %d, want 1", got)
	}
	// a1 and a2 have one proper ancestor each; 2/7 total.
	if got := d.MeanAncestors(); got < 0.28 || got > 0.29 {
		t.Errorf("MeanAncestors = %f", got)
	}
	leaves := d.Leaves()
	if len(leaves) != 6 {
		t.Errorf("Leaves = %v, want 6 items (all but A)", leaves)
	}
	if d.NumFrequent(2) != 5 {
		t.Errorf("NumFrequent(2) = %d, want 5", d.NumFrequent(2))
	}
	if d.NumFrequent(1) != 7 {
		t.Errorf("NumFrequent(1) = %d, want 7", d.NumFrequent(1))
	}
}

func TestPivotOf(t *testing.T) {
	d := paperex.Dict()
	cases := []struct {
		seq  []string
		want string
	}{
		{[]string{"a1", "a1", "b"}, "a1"},
		{[]string{"a1", "A", "b"}, "a1"},
		{[]string{"a1", "b"}, "a1"},
		{[]string{"a1", "c", "d", "c", "b"}, "c"},
		{[]string{"b"}, "b"},
	}
	for _, c := range cases {
		enc, err := d.EncodeSequence(c.seq)
		if err != nil {
			t.Fatal(err)
		}
		if got := dict.PivotOf(enc); got != d.MustFid(c.want) {
			t.Errorf("PivotOf(%v) = %s, want %s", c.seq, d.Name(got), c.want)
		}
	}
	if dict.PivotOf(nil) != dict.None {
		t.Error("PivotOf(nil) must be None")
	}
}

func TestIsFrequent(t *testing.T) {
	d := paperex.Dict()
	if !d.IsFrequent(d.MustFid("c"), 2) {
		t.Error("c should be frequent at sigma=2")
	}
	if d.IsFrequent(d.MustFid("e"), 2) {
		t.Error("e should be infrequent at sigma=2")
	}
}

// TestHasAncestorConsistentWithAncestors is a property test: HasAncestor(x, a)
// holds exactly when a appears in Ancestors(x).
func TestHasAncestorConsistentWithAncestors(t *testing.T) {
	d := paperex.Dict()
	f := func(x, a uint8) bool {
		xi := dict.ItemID(x%7 + 1)
		ai := dict.ItemID(a%7 + 1)
		in := false
		for _, v := range d.Ancestors(xi) {
			if v == ai {
				in = true
			}
		}
		return d.HasAncestor(xi, ai) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBuilderRandomFrequencies checks, on random small databases, that the
// Builder's document frequencies equal a brute-force count and that fid order
// is consistent with frequencies.
func TestBuilderRandomFrequencies(t *testing.T) {
	f := func(raw [][]uint8) bool {
		names := []string{"x0", "x1", "x2", "x3", "p0", "p1"}
		b := dict.NewBuilder()
		// x0..x3 are leaves, x0,x1 -> p0, x2 -> p1.
		b.AddItem("x0", "p0")
		b.AddItem("x1", "p0")
		b.AddItem("x2", "p1")
		b.AddItem("x3")
		var db [][]string
		for _, row := range raw {
			var seq []string
			for _, v := range row {
				seq = append(seq, names[v%4])
			}
			if len(seq) == 0 {
				continue
			}
			db = append(db, seq)
			b.AddSequence(seq)
		}
		d, err := b.Build()
		if err != nil {
			return false
		}
		// Brute-force document frequencies.
		want := make(map[string]int64)
		for _, seq := range db {
			seen := map[string]bool{}
			for _, it := range seq {
				seen[it] = true
				switch it {
				case "x0", "x1":
					seen["p0"] = true
				case "x2":
					seen["p1"] = true
				}
			}
			for k := range seen {
				want[k]++
			}
		}
		for _, n := range names {
			fid, ok := d.Fid(n)
			if !ok {
				continue
			}
			if d.DocFreq(fid) != want[n] {
				return false
			}
		}
		// fids sorted by frequency.
		freqs := make([]int64, 0, d.Size())
		for fid := dict.ItemID(1); int(fid) <= d.Size(); fid++ {
			freqs = append(freqs, d.DocFreq(fid))
		}
		return sort.SliceIsSorted(freqs, func(i, j int) bool { return freqs[i] > freqs[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMaxFrequentFid pins the single-compare frequent-item test the flattened
// miner hot path relies on: for a Builder-built (frequency-sorted) dictionary,
// IsFrequent(w, sigma) must hold exactly for w <= MaxFrequentFid(sigma).
func TestMaxFrequentFid(t *testing.T) {
	d := buildRunningExample(t)
	if !d.FrequencySorted() {
		t.Fatal("Builder-built dictionary must report FrequencySorted")
	}
	for sigma := int64(0); sigma <= 5; sigma++ {
		limit := d.MaxFrequentFid(sigma)
		for w := dict.ItemID(1); int(w) <= d.Size(); w++ {
			if got, want := w <= limit, d.IsFrequent(w, sigma); got != want {
				t.Errorf("sigma %d: w=%v <= MaxFrequentFid=%v is %v, IsFrequent is %v",
					sigma, w, limit, got, want)
			}
		}
	}
	if got := d.MaxFrequentFid(1 << 40); got != dict.None {
		t.Errorf("MaxFrequentFid(huge) = %v, want None", got)
	}
}

// TestParentsAndNumSequences covers the direct-generalization accessor and
// the Builder's sequence counter.
func TestParentsAndNumSequences(t *testing.T) {
	b := dict.NewBuilder()
	b.AddItem("a1", "A")
	b.AddItem("a2", "A")
	for _, name := range []string{"A", "b", "c", "d", "e"} {
		b.AddItem(name)
	}
	for _, seq := range paperex.RawDB() {
		b.AddSequence(seq)
	}
	if got, want := b.NumSequences(), int64(len(paperex.RawDB())); got != want {
		t.Fatalf("NumSequences = %d, want %d", got, want)
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ps := d.Parents(d.MustFid("a1"))
	if len(ps) != 1 || d.Name(ps[0]) != "A" {
		t.Errorf("Parents(a1) = %v, want [A]", ps)
	}
	if ps := d.Parents(d.MustFid("b")); len(ps) != 0 {
		t.Errorf("Parents(b) = %v, want none", ps)
	}
	if ps := d.Parents(dict.ItemID(999)); ps != nil {
		t.Errorf("Parents(out of range) = %v, want nil", ps)
	}
}

// TestPackKeyRoundTrip pins the packed sequence-key encoding of the D-SEQ
// combiner fingerprints: 4 bytes little endian per item, loss-free, appended
// behind what the buffer already holds.
func TestPackKeyRoundTrip(t *testing.T) {
	seqs := [][]dict.ItemID{
		nil,
		{1},
		{1, 2, 300},
		{0x01020304, 0x7fffffff, 0},
	}
	for _, seq := range seqs {
		key := dict.AppendPackedKey([]byte("x"), seq)
		if len(key) != 1+4*len(seq) || key[0] != 'x' {
			t.Fatalf("AppendPackedKey(\"x\", %v) = %q, want \"x\" and %d more bytes", seq, key, 4*len(seq))
		}
		for i, want := range seq {
			if got := dict.ItemID(binary.LittleEndian.Uint32(key[1+4*i:])); got != want {
				t.Fatalf("round trip of %v: item %d = %d", seq, i, got)
			}
		}
	}
}

// TestHashItems pins that the canonical sequence hash depends on content and
// order, and agrees across equal slices.
func TestHashItems(t *testing.T) {
	a := []dict.ItemID{1, 2, 3}
	if dict.HashItems(a) != dict.HashItems([]dict.ItemID{1, 2, 3}) {
		t.Error("equal sequences must hash equal")
	}
	if dict.HashItems(a) == dict.HashItems([]dict.ItemID{3, 2, 1}) {
		t.Error("hash should depend on order")
	}
	if dict.HashItems(nil) == dict.HashItems(a) {
		t.Error("empty and non-empty sequences should differ")
	}
}
