package nfa

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"seqmine/internal/dict"
	"seqmine/internal/miner"
)

// FuzzDeserialize feeds arbitrary bytes into the NFA codec. Garbage must
// fail cleanly (no panic, no unbounded allocation) and exactly when the
// oracle decoder rejects it or the automaton is cyclic; any input that
// decodes must reach a serialization fixed point — Serialize(Deserialize(x))
// is canonical, so re-decoding and re-encoding it reproduces the same bytes —
// and, being acyclic, must mine to the oracle miner's answer.
func FuzzDeserialize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add([]byte{0x00, 0x01, 0x01, 0x02, 0x01, 0x01, 0x00}) // 0 -> 1 -> 0
	b := NewBuilder()
	b.AddPath([][]dict.ItemID{{1, 2}, {3}})
	b.AddPath([][]dict.ItemID{{1}, {3}})
	f.Add(b.Minimize().Serialize())
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 48 {
			data = data[:48] // a DAG of n edges can accept 2^(n/2) sequences
		}
		n, err := Deserialize(data)
		want, oracleErr := oracleDeserialize(data)
		if err != nil {
			if oracleErr == nil && err != ErrCyclic {
				t.Fatalf("Deserialize(%x) = %v, the oracle decodes it", data, err)
			}
			return
		}
		if oracleErr != nil {
			t.Fatalf("Deserialize(%x) succeeded, the oracle says %v", data, oracleErr)
		}
		canonical := n.Serialize()
		if oracleBytes := want.Serialize(); !bytes.Equal(canonical, oracleBytes) {
			t.Fatalf("re-serialized %x\n  flat: %x\noracle: %x", data, canonical, oracleBytes)
		}
		n2, err := Deserialize(canonical)
		if err != nil {
			t.Fatalf("re-deserialize failed: %v (bytes %x)", err, canonical)
		}
		if again := n2.Serialize(); !bytes.Equal(again, canonical) {
			t.Fatalf("serialization is not a fixed point:\n first %x\nsecond %x", canonical, again)
		}
		got := MinePartition([]Weighted{{N: n, Weight: 2}, {N: n2, Weight: 1}}, 2, dict.None)
		ref := oracleMinePartition([]oracleWeighted{{N: want, Weight: 2}, {N: want, Weight: 1}}, 2, dict.None)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("mining %x: forest %v, oracle %v", data, got, ref)
		}
	})
}

// checkAgainstOracle derives weighted path sets from data — 0 (or the sixth
// set) ends a path, 0xff ends an automaton, the low bits of every other byte pick an item and
// whether the output set has one or two items — and holds the flat kernels to
// the oracle: trie and minimized automata serialize to the oracle's bytes,
// the accepted language survives the wire, and the forest miner, fed the
// serialized bytes or the in-memory automata, agrees with the oracle miner
// and with brute-force counting over Accepted().
func checkAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	b, ob := NewBuilder(), newOracleBuilder()
	var (
		path     [][]dict.ItemID
		weighted []Weighted
		oracle   []oracleWeighted
		wire     [][]byte
		counts   = map[string]int64{}
		seqs     = map[string][]dict.ItemID{}
	)
	flushPath := func() {
		b.AddPath(path)
		ob.AddPath(path)
		path = path[:0]
	}
	flushAutomaton := func() {
		flushPath()
		weight := int64(len(weighted)%3 + 1)
		for _, minimize := range []bool{false, true} {
			n, on := b.Trie(), ob.Trie()
			if minimize {
				n, on = b.Minimize(), ob.Minimize()
			}
			got, want := n.Serialize(), on.Serialize()
			if !bytes.Equal(got, want) {
				t.Fatalf("minimize=%v: serialized %x, oracle %x", minimize, got, want)
			}
			if n.NumStates() != on.NumStates() || n.NumEdges() != on.NumEdges() {
				t.Fatalf("minimize=%v: %d states %d edges, oracle %d and %d", minimize,
					n.NumStates(), n.NumEdges(), on.NumStates(), on.NumEdges())
			}
			decoded, err := Deserialize(got)
			if err != nil {
				t.Fatalf("Deserialize(Serialize): %v", err)
			}
			if lang := decoded.Accepted(); !reflect.DeepEqual(lang, on.Accepted()) {
				t.Fatalf("accepted language changed over the wire:\n got %v\nwant %v", lang, on.Accepted())
			}
			if minimize {
				// The builders are reused below, so mine private copies.
				weighted = append(weighted, Weighted{N: decoded, Weight: weight})
				oracle = append(oracle, oracleWeighted{N: on, Weight: weight})
				wire = append(wire, got)
				for _, seq := range on.Accepted() {
					counts[labelKey(seq)] += weight
					seqs[labelKey(seq)] = seq
				}
			}
		}
		b.Reset()
		ob = newOracleBuilder()
	}
	for _, c := range data {
		switch c {
		case 0:
			flushPath()
		case 0xff:
			flushAutomaton()
		default:
			item := dict.ItemID(c&0x0f) + 1
			set := []dict.ItemID{item}
			if c&0x10 != 0 {
				set = append(set, item+1)
			}
			if path = append(path, set); len(path) == 6 {
				flushPath() // a path of n two-item sets accepts 2^n sequences
			}
		}
	}
	flushAutomaton()

	sigma := int64(len(data)%3 + 1)
	for _, pivot := range []dict.ItemID{dict.None, 3} {
		var brute []miner.Pattern
		for key, freq := range counts {
			if freq >= sigma && (pivot == dict.None || containsItem(seqs[key], pivot)) {
				brute = append(brute, miner.Pattern{Items: seqs[key], Freq: freq})
			}
		}
		miner.SortPatterns(brute)
		want := oracleMinePartition(oracle, sigma, pivot)
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(brute, want) {
			t.Fatalf("oracle miner %v, brute force %v", want, brute)
		}
		if got := MinePartition(weighted, sigma, pivot); !reflect.DeepEqual(got, want) {
			t.Fatalf("sigma %d pivot %d: MinePartition %v, oracle %v", sigma, pivot, got, want)
		}
		fo := AcquireForest()
		for i, data := range wire {
			if err := fo.Add(data, weighted[i].Weight); err != nil {
				t.Fatal(err)
			}
		}
		var got []miner.Pattern
		fo.Mine(sigma, pivot, func(p miner.Pattern) { got = append(got, p) })
		checkSupports(t, fo)
		fo.Release()
		miner.SortPatterns(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sigma %d pivot %d: forest over wire bytes %v, oracle %v", sigma, pivot, got, want)
		}
	}
}

// checkSupports holds the support of every item of fo's root expansion,
// which its last Mine left in frames[0], to its definition: the weight of the
// distinct automata owning the item's target states. The answers cannot show
// an inflated support, which only prunes less. (Deeper frames may still hold
// an earlier partition's expansions.)
func checkSupports(t *testing.T, fo *Forest) {
	t.Helper()
	fr := fo.frames[0]
	for _, key := range fr.order {
		x := fr.exps[uint32(key)]
		owners := map[int32]bool{}
		var want int64
		for _, q := range x.states {
			if o := fo.owner[q]; !owners[o] {
				owners[o] = true
				want += fo.weight[o]
			}
		}
		if x.support != want {
			t.Fatalf("root item %d: support %d, want %d", key>>32, x.support, want)
		}
	}
}

// FuzzBuilderRoundTrip fuzzes checkAgainstOracle.
func FuzzBuilderRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 0, 3})
	f.Add([]byte{5, 5, 5, 0, 5, 5})
	f.Add([]byte{})
	f.Add([]byte{1, 0x12, 3, 0, 1, 3, 0xff, 1, 2, 3, 0, 2, 3, 0xff, 0x11, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64] // keep language enumeration cheap
		}
		checkAgainstOracle(t, data)
	})
}

// TestFlatKernelsMatchOracle runs the fuzz property over random inputs, large
// partitions included: every tenth input has 2000 bytes, some 170 automata
// in one partition, so each item's buffer collects targets from many owners.
func TestFlatKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		size := rng.Intn(64)
		if trial%10 == 0 {
			size = 2000
		}
		data := make([]byte, size)
		for i := range data {
			switch r := rng.Intn(12); {
			case r < 2:
				data[i] = 0
			case r == 2 && size > 64:
				data[i] = 0xff
			default:
				data[i] = byte(rng.Intn(6)) | byte(rng.Intn(2))<<4
			}
		}
		checkAgainstOracle(t, data)
	}
}

// TestForestReuseAcrossPartitions mines partitions of very different shapes
// in turn through the pool — large ones (item ids in the thousands, dozens of
// automata) and tiny ones (a few states, small ids) — and holds each answer to
// the oracle: no stamp, slot, last owner or buffer a forest keeps across
// Release may leak into the next partition. Some partitions are mined a
// second time across the generation counter's wrap, which must clear stamps.
func TestForestReuseAcrossPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	partition := func(automata, paths int, lo, span dict.ItemID) ([][]byte, []oracleWeighted) {
		var wire [][]byte
		var oracle []oracleWeighted
		b := NewBuilder()
		for range automata {
			b.Reset()
			ob := newOracleBuilder()
			for range 1 + rng.Intn(paths) {
				path := make([][]dict.ItemID, 1+rng.Intn(4))
				for j := range path {
					w := lo + dict.ItemID(rng.Intn(int(span)))
					path[j] = []dict.ItemID{w}
					if rng.Intn(3) == 0 {
						path[j] = append(path[j], w+1)
					}
				}
				b.AddPath(path)
				ob.AddPath(path)
			}
			wire = append(wire, b.Minimize().Serialize())
			oracle = append(oracle, oracleWeighted{N: ob.Minimize(), Weight: int64(1 + rng.Intn(3))})
		}
		return wire, oracle
	}
	var prev *Forest
	reused, patterns := 0, 0
	const rounds = 40
	for round := range rounds {
		wire, oracle := partition(2+rng.Intn(2), 3, 1, 4)
		pivot := dict.ItemID(2)
		if round%2 == 0 {
			wire, oracle = partition(40+rng.Intn(20), 8, 1000+dict.ItemID(rng.Intn(3000)), 6)
			pivot = oracle[0].N.Accepted()[0][0]
		}
		if round%5 == 4 {
			pivot = dict.None
		}
		fo := AcquireForest()
		if fo == prev {
			reused++
		}
		prev = fo
		for i, data := range wire {
			if err := fo.Add(data, oracle[i].Weight); err != nil {
				t.Fatal(err)
			}
		}
		want := oracleMinePartition(oracle, 2, pivot)
		if len(want) == 0 {
			want = nil
		}
		gens := []uint32{fo.gen}
		if round%7 == 3 {
			// Mine twice from the wrap: both passes run the same
			// generations, so the second meets every stamp of the first
			// unless the wrap clears them.
			gens = []uint32{^uint32(0), ^uint32(0)}
		}
		for _, gen := range gens {
			fo.gen = gen
			var got []miner.Pattern
			fo.Mine(2, pivot, func(p miner.Pattern) { got = append(got, p) })
			checkSupports(t, fo)
			miner.SortPatterns(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d (%d automata, pivot %d, generation %d): forest %v, oracle %v", round, len(wire), pivot, gen, got, want)
			}
		}
		fo.Release()
		patterns += len(want)
	}
	// Under the race detector the pool drops forests at random, so only some
	// rounds reuse one; any reuse suffices to catch stale state.
	if reused == 0 || patterns < rounds {
		t.Fatalf("%d of %d forests reused, %d patterns: the test is vacuous", reused, rounds, patterns)
	}
}
