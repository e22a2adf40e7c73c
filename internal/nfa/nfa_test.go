package nfa_test

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"seqmine/internal/dict"
	"seqmine/internal/miner"
	"seqmine/internal/nfa"
	"seqmine/internal/paperex"
)

// singleton turns a sequence of items into a path of singleton output sets.
func singleton(items ...dict.ItemID) [][]dict.ItemID {
	out := make([][]dict.ItemID, len(items))
	for i, w := range items {
		out[i] = []dict.ItemID{w}
	}
	return out
}

func decodeAll(d *dict.Dictionary, seqs [][]dict.ItemID) []string {
	out := make([]string, 0, len(seqs))
	for _, s := range seqs {
		out = append(out, d.DecodeString(s))
	}
	sort.Strings(out)
	return out
}

// TestFig7TrieAndMinimization reproduces Fig. 7 of the paper: the candidate
// NFAs for ρc(T1). The trie has 13 vertices and 12 edges; the minimized NFA
// has 7 vertices and 10 edges; both accept exactly the five pivot-c
// candidates of T1.
func TestFig7TrieAndMinimization(t *testing.T) {
	d := paperex.Dict()
	id := func(name string) dict.ItemID { return d.MustFid(name) }
	a1, b, c, dd := id("a1"), id("b"), id("c"), id("d")

	paths := [][][]dict.ItemID{
		singleton(a1, c, b),
		singleton(a1, c, c, b),
		singleton(a1, c, dd, b),
		singleton(a1, c, dd, c, b),
		singleton(a1, dd, c, b),
	}
	builder := nfa.NewBuilder()
	for _, p := range paths {
		builder.AddPath(p)
	}
	trie := builder.Trie()
	if trie.NumStates() != 13 || trie.NumEdges() != 12 {
		t.Errorf("trie has %d vertices and %d edges, want 13 and 12", trie.NumStates(), trie.NumEdges())
	}
	minimized := builder.Minimize()
	if minimized.NumStates() != 7 || minimized.NumEdges() != 10 {
		t.Errorf("minimized NFA has %d vertices and %d edges, want 7 and 10", minimized.NumStates(), minimized.NumEdges())
	}
	want := []string{"a1 c b", "a1 c c b", "a1 c d b", "a1 c d c b", "a1 d c b"}
	sort.Strings(want)
	if got := decodeAll(d, trie.Accepted()); !reflect.DeepEqual(got, want) {
		t.Errorf("trie accepts %v, want %v", got, want)
	}
	if got := decodeAll(d, minimized.Accepted()); !reflect.DeepEqual(got, want) {
		t.Errorf("minimized NFA accepts %v, want %v", got, want)
	}
	// Minimization must not increase the serialized size.
	if len(minimized.Serialize()) > len(trie.Serialize()) {
		t.Errorf("minimized serialization (%d bytes) larger than trie (%d bytes)",
			len(minimized.Serialize()), len(trie.Serialize()))
	}
}

// TestFig8NFA reproduces the NFA for ρa1(T5) of Fig. 8: 4 states, 4 edges,
// accepting a1b, a1a1b and a1Ab.
func TestFig8NFA(t *testing.T) {
	d := paperex.Dict()
	a1, A, b := d.MustFid("a1"), d.MustFid("A"), d.MustFid("b")

	builder := nfa.NewBuilder()
	// Runs r1/r2 contribute the path {a1}{b}; run r3 contributes
	// {a1}{a1,A}{b}.
	builder.AddPath(singleton(a1, b))
	builder.AddPath([][]dict.ItemID{{a1}, {A, a1}, {b}})
	min := builder.Minimize()
	if min.NumStates() != 4 || min.NumEdges() != 4 {
		t.Errorf("NFA has %d states and %d edges, want 4 and 4", min.NumStates(), min.NumEdges())
	}
	want := []string{"a1 A b", "a1 a1 b", "a1 b"}
	if got := decodeAll(d, min.Accepted()); !reflect.DeepEqual(got, want) {
		t.Errorf("accepts %v, want %v", got, want)
	}
	// Round trip through the serialization.
	decoded, err := nfa.Deserialize(min.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeAll(d, decoded.Accepted()); !reflect.DeepEqual(got, want) {
		t.Errorf("decoded NFA accepts %v, want %v", got, want)
	}
	if decoded.NumStates() != 4 || decoded.NumEdges() != 4 {
		t.Errorf("decoded NFA has %d states and %d edges, want 4 and 4", decoded.NumStates(), decoded.NumEdges())
	}
}

func TestSerializeEmptyAndSingle(t *testing.T) {
	b := nfa.NewBuilder()
	if !b.Empty() {
		t.Error("new builder should be empty")
	}
	empty := b.Minimize()
	if got := empty.Accepted(); len(got) != 0 {
		t.Errorf("empty NFA accepts %v", got)
	}
	data := empty.Serialize()
	back, err := nfa.Deserialize(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Accepted()) != 0 {
		t.Error("round-tripped empty NFA should accept nothing")
	}

	b.AddPath(singleton(5))
	if b.Empty() {
		t.Error("builder with a path should not be empty")
	}
	single := b.Minimize()
	back, err = nfa.Deserialize(single.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	got := back.Accepted()
	if len(got) != 1 || len(got[0]) != 1 || got[0][0] != 5 {
		t.Errorf("single-item NFA round trip = %v", got)
	}
}

func TestDeserializeErrors(t *testing.T) {
	bad := [][]byte{
		{0x01},                   // source flag but truncated varint
		{0x00, 0x00},             // empty label
		{0x00, 0x01},             // label count without item
		{0x02, 0x01, 0x05},       // target given but missing
		{0x01, 0x09, 0x01, 0x05}, // source id out of range
	}
	for i, data := range bad {
		if _, err := nfa.Deserialize(data); err == nil {
			t.Errorf("case %d: expected error for %v", i, data)
		}
	}
	// 0 -{1}-> 1 -{1}-> 0: a target-given edge back to an ancestor. Mining a
	// cycle would recurse until the stack is gone, so decoding rejects it.
	for _, cyclic := range [][]byte{
		{0x00, 0x01, 0x01, 0x02, 0x01, 0x01, 0x00},
		{0x02, 0x01, 0x01, 0x00}, // self loop on the root
	} {
		if _, err := nfa.Deserialize(cyclic); !errors.Is(err, nfa.ErrCyclic) {
			t.Errorf("Deserialize(%x) = %v, want ErrCyclic", cyclic, err)
		}
		if err := nfa.Validate(cyclic); !errors.Is(err, nfa.ErrCyclic) {
			t.Errorf("Validate(%x) = %v, want ErrCyclic", cyclic, err)
		}
	}
}

func TestMinePartitionCounting(t *testing.T) {
	// NFA A (weight 2) accepts {1 2, 1 3 2}; NFA B (weight 1) accepts {1 2}.
	ba := nfa.NewBuilder()
	ba.AddPath(singleton(1, 2))
	ba.AddPath(singleton(1, 3, 2))
	bb := nfa.NewBuilder()
	bb.AddPath(singleton(1, 2))

	nfas := []nfa.Weighted{
		{N: ba.Minimize(), Weight: 2},
		{N: bb.Minimize(), Weight: 1},
	}
	got := map[string]int64{}
	for _, p := range nfa.MinePartition(nfas, 2, dict.None) {
		got[keyOf(p)] = p.Freq
	}
	want := map[string]int64{"1 2": 3, "1 3 2": 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MinePartition = %v, want %v", got, want)
	}

	// Pivot restriction: only candidates containing item 3.
	got = map[string]int64{}
	for _, p := range nfa.MinePartition(nfas, 2, 3) {
		got[keyOf(p)] = p.Freq
	}
	want = map[string]int64{"1 3 2": 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MinePartition(pivot=3) = %v, want %v", got, want)
	}
}

// TestMinePartitionDeduplicatesPaths: a candidate accepted via two different
// paths of the same NFA must be counted once per NFA.
func TestMinePartitionDeduplicatesPaths(t *testing.T) {
	b := nfa.NewBuilder()
	b.AddPath(singleton(1, 2))
	b.AddPath([][]dict.ItemID{{1, 2}, {2}}) // accepts "1 2" and "2 2"
	n := b.Minimize()
	got := map[string]int64{}
	for _, p := range nfa.MinePartition([]nfa.Weighted{{N: n, Weight: 5}}, 1, dict.None) {
		got[keyOf(p)] = p.Freq
	}
	want := map[string]int64{"1 2": 5, "2 2": 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MinePartition = %v, want %v", got, want)
	}
}

func keyOf(p miner.Pattern) string {
	s := ""
	for i, w := range p.Items {
		if i > 0 {
			s += " "
		}
		s += string(rune('0' + int(w)))
	}
	return s
}

// TestMinimizePreservesLanguage is a property test: for random path sets the
// trie, the minimized NFA and the serialization round trip accept the same
// language, and minimization never increases the number of states.
func TestMinimizePreservesLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		b := nfa.NewBuilder()
		numPaths := rng.Intn(6) + 1
		for p := 0; p < numPaths; p++ {
			length := rng.Intn(4) + 1
			path := make([][]dict.ItemID, length)
			for i := range path {
				setSize := rng.Intn(2) + 1
				set := map[dict.ItemID]bool{}
				for len(set) < setSize {
					set[dict.ItemID(rng.Intn(5)+1)] = true
				}
				var label []dict.ItemID
				for w := range set {
					label = append(label, w)
				}
				sort.Slice(label, func(i, j int) bool { return label[i] < label[j] })
				path[i] = label
			}
			b.AddPath(path)
		}
		trie := b.Trie()
		min := b.Minimize()
		want := languageOf(trie)
		if got := languageOf(min); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: minimized language %v != trie language %v", trial, got, want)
		}
		if min.NumStates() > trie.NumStates() {
			t.Fatalf("trial %d: minimization increased states %d -> %d", trial, trie.NumStates(), min.NumStates())
		}
		back, err := nfa.Deserialize(min.Serialize())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := languageOf(back); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: serialization changed language", trial)
		}
	}
}

func languageOf(n *nfa.NFA) map[string]bool {
	out := map[string]bool{}
	for _, s := range n.Accepted() {
		key := ""
		for _, w := range s {
			key += string(rune('0'+int(w))) + " "
		}
		out[key] = true
	}
	return out
}

// TestSteadyStateAllocations pins the flat kernels' allocation behaviour: a
// warm Builder takes paths, minimizes and serializes into a caller's buffer
// without allocating, and decoding plus mining a partition in a pooled Forest
// allocates nothing beyond the emitted patterns' item slices.
func TestSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	paths := benchPaths(64)
	b := nfa.NewBuilder()
	var wire []byte
	build := func() {
		b.Reset()
		for _, p := range paths {
			b.AddPath(p)
		}
		wire = b.Minimize().AppendSerialized(wire[:0])
		wire = b.Trie().AppendSerialized(wire[:0])
	}
	build()
	if allocs := testing.AllocsPerRun(50, build); allocs != 0 {
		t.Errorf("warm AddPath+Minimize+Trie+AppendSerialized: %v allocs per run, want 0", allocs)
	}

	var partition [][]byte
	for i := 0; i < 32; i++ {
		b.Reset()
		for _, p := range paths[i : i+16] {
			b.AddPath(p)
		}
		partition = append(partition, b.Minimize().Serialize())
	}
	patterns := 0
	count := func(miner.Pattern) { patterns++ }
	mine := func() {
		patterns = 0
		fo := nfa.AcquireForest()
		for i, data := range partition {
			if err := fo.Add(data, int64(i%5+1)); err != nil {
				t.Fatal(err)
			}
		}
		fo.Mine(3, dict.None, count)
		fo.Release()
	}
	mine()
	if patterns == 0 {
		t.Fatal("the partition has no frequent candidate; the pin is vacuous")
	}
	// +1: a garbage collection inside the window empties the pool once.
	if allocs := testing.AllocsPerRun(50, mine); allocs > float64(patterns)+1 {
		t.Errorf("decode+mine: %v allocs per run for %d emitted patterns", allocs, patterns)
	}
}
