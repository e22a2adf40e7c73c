package miner_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"seqmine/internal/dict"
	"seqmine/internal/fst"
	"seqmine/internal/miner"
)

// genCase derives a small mining problem from bytes, the way
// fst/kernel_test.go draws one from a random source: a dictionary over a DAG
// hierarchy (every item takes up to two parents among the items before it),
// up to 23 sequences of up to five items — empty ones included — and a
// pattern expression over item expressions of every kind under concatenation,
// alternation and repetition — one in eight with a leading {1,70} repetition,
// whose automaton has more than 64 states and so rows of several words.
// Exhausted input reads as zeros.
func genCase(data []byte) (*dict.Dictionary, [][]dict.ItemID, string) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	names := make([]string, 3+next()%10)
	b := dict.NewBuilder()
	for i := range names {
		names[i] = fmt.Sprintf("i%d", i)
		var parents []string
		for p := next() % 3; i > 0 && p > 0; p-- {
			parents = append(parents, names[next()%i])
		}
		b.AddItem(names[i], parents...)
	}
	raw := make([][]string, next()%24)
	for s := range raw {
		raw[s] = make([]string, next()%6)
		for j := range raw[s] {
			raw[s][j] = names[next()%len(names)]
		}
		b.AddSequence(raw[s])
	}
	d, err := b.Build()
	if err != nil {
		panic(err) // parents precede their children: the hierarchy is acyclic
	}
	db := make([][]dict.ItemID, len(raw))
	for s := range raw {
		if db[s], err = d.EncodeSequence(raw[s]); err != nil {
			panic(err)
		}
	}
	var expr func(depth int) string
	expr = func(depth int) string {
		if depth == 0 || next()%3 == 0 {
			atom := "."
			if next()%4 > 0 {
				atom = names[next()%len(names)]
			}
			if suffix := []string{"", "", "^", "=", "^="}[next()%5]; atom != "." || suffix == "^" {
				atom += suffix
			}
			if next()%2 == 0 {
				return "(" + atom + ")"
			}
			return atom
		}
		x, y := expr(depth-1), expr(depth-1)
		switch next() % 6 {
		case 0:
			return "[" + x + "|" + y + "]"
		case 1:
			return "[" + x + "]" + []string{"*", "+", "?", "{1,3}"}[next()%4]
		default:
			return x + " " + y
		}
	}
	e := expr(3)
	if next()%8 == 7 { // more than 64 states, rows of several words
		e = "[" + expr(0) + "]{1,70} " + e
	}
	return d, db, ".*" + e + ".*"
}

// keptDepthSeeds are genCase inputs whose Prepared keeps prefixes of each
// depth that sigma 2 reaches: three items, under the bound, and two, where the
// triples' databases would outweigh the rest of the Prepared.
var keptDepthSeeds = map[int][]byte{
	3: []byte("\x5a\x07\x22\xc5\x68\xc3\x9a\xdc\xf3\x68\x7c\x0f\xe8\xfd\x6e\x42\x66\xe7\x44\x0b\x9f\x1f\xc7\x06\x21" +
		"\xdb\x39\xbc\xff\x64\x93\xdc\xe5\x3b\xeb\xfa\x6c\xef"), // .*[(.^)]{1,70} (i0^).*
	2: []byte("\x8f\x85\x07\x39\xdf\xc3\x65\x10\xb1\xe7\xbb\x16\x95\x41\x81\x64\x28\x5c\x44\x63\x1b\x4b\x1a" +
		"\x7c\x57\x98\xec\xb2\xd9\x76\xc1\xa3\x67\x9a\x82\x7b\xf0\xe8\xc6\x62\x56\x7e\x40\x2b\xcc\x13"), // .*[[[(i0^)]*|[(.)|(.)]]|(.)].*
}

// tenStates is a genCase input whose automaton has 10 states, one word per
// row on the byte-sliced table but too many states for packed rows:
// .*[[[(.)]{1,3}]{1,3}|(.)].* over seven sequences, six of them accepted.
var tenStates = []byte("\x17\x5c\x4f\x51\x3c\x7a\x1a\xc6\xbb\x01\xc1\x46\xf7\xb5\x14\xa3\x70\xd1\x19\xa7" +
	"\x58\x67\x02\x72\x13\x92\xd1\x8b\xb9\xc3\x79\x2e\x52\x0d\xe6\xe0\xdc\xa0\x5c\x52\xd4\xe2\xee\x44" +
	"\x0e\x6a\x4f\xb3\x43\x24\xdf\x31\xe3\x94\x9a\x97\x6a\x61\x23")

// fuzzSeed is a seed of the two fuzzers below: a genCase input, the weight
// seed (FuzzMineDFSMatchesMineCount only) and two thresholds.
type fuzzSeed struct {
	data   []byte
	seed   int64
	s1, s2 uint8
}

// The seeds of FuzzPreparedMatchesMineDFS and of FuzzMineDFSMatchesMineCount.
var (
	preparedSeeds = []fuzzSeed{
		{[]byte{}, 0, 1, 2},
		{[]byte{5, 0, 1, 0, 2, 0, 1, 1, 9, 3, 0, 1, 2, 4, 3, 2, 1, 2, 3, 1, 7, 7, 7, 7}, 0, 2, 1},
		{[]byte("a small hierarchy, a database and an expression from bytes"), 0, 3, 1},
		{keptDepthSeeds[3], 0, 1, 2},
		{keptDepthSeeds[2], 0, 2, 1},
		{tenStates, 0, 1, 2},
	}
	mineCountSeeds = []fuzzSeed{
		{[]byte{}, 1, 1, 2},
		{[]byte{5, 0, 1, 0, 2, 0, 1, 1, 9, 3, 0, 1, 2, 4, 3, 2, 1, 2, 3, 1, 7, 7, 7, 7}, 2, 3, 6},
		{[]byte("a small hierarchy, a database and an expression from bytes"), 3, 2, 9},
		{[]byte("\xa4\xf9\xe5\xcfBU\xee\xb1\xe9\xe8\x00\x9a\xb5\a9[\xac\xb8\xb2\x17~|WW\xad\x02\xba\xa9\xa9m" +
			"\xb9g\xd2\n\x15\r-\xd7\xf3\b\x1d\x90g_\xe0"), 4, 1, 4}, // 72 states
		{tenStates, 5, 1, 2},
	}
)

// TestFuzzSeedsCrossTheEightStateLine: each fuzzer's seeds hold automata on
// both sides of the line that decides the row layout (fst.RowLayout) — packed
// rows at most 8 states, one bitset per matrix above — and one of 9 to 64
// states, whose rows are one word on the byte-sliced table but not packed.
func TestFuzzSeedsCrossTheEightStateLine(t *testing.T) {
	for name, seeds := range map[string][]fuzzSeed{"FuzzPreparedMatchesMineDFS": preparedSeeds, "FuzzMineDFSMatchesMineCount": mineCountSeeds} {
		var packed, oneWord int
		for _, seed := range seeds {
			d, _, expr := genCase(seed.data)
			fm, err := fst.Compile(expr, d)
			if err != nil {
				t.Fatalf("%s: seed expression %q does not compile: %v", name, expr, err)
			}
			if fm.RowLayout(false).Packed {
				packed++
			} else if fm.Words() == 1 {
				oneWord++
			}
		}
		if packed == 0 || oneWord == 0 || packed == len(seeds) {
			t.Errorf("%s: %d seeds, %d with packed rows, %d of 9–64 states", name, len(seeds), packed, oneWord)
		}
	}
}

// FuzzPreparedMatchesMineDFS takes a hierarchy, a database, an expression and
// two thresholds from the fuzzer (genCase): one Prepared, built on two
// workers and mined at both thresholds — the second call sees whatever the
// first left in the pools — must return exactly the single-threaded MineDFS
// result each time. Its seeds include one per kept depth (keptDepthSeeds).
func FuzzPreparedMatchesMineDFS(f *testing.F) {
	for _, s := range preparedSeeds {
		f.Add(s.data, s.s1, s.s2)
	}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte, s1, s2 uint8) {
		if len(data) > 512 {
			return
		}
		d, db, expr := genCase(data)
		fm, err := fst.Compile(expr, d)
		if err != nil || fm.NumStates() > 256 {
			return
		}
		p := miner.Prepare(ctx, fm, db, 2)
		for _, sigma := range []int64{1 + int64(s1%8), 1 + int64(s2%8)} {
			want := miner.MineDFS(fm, miner.Weighted(db), sigma, miner.DFSOptions{})
			if got := p.Mine(ctx, sigma, 2, nil); !samePatterns(got, want) {
				t.Fatalf("%q over %v at sigma %d:\n got %v\nwant %v", expr, db, sigma, got, want)
			}
		}
	})
}

// withWeights gives every sequence of db a weight of 1–5 drawn from seed.
func withWeights(db [][]dict.ItemID, seed int64) []miner.WeightedSequence {
	rng := rand.New(rand.NewSource(seed))
	ws := miner.Weighted(db)
	for i := range ws {
		ws[i].Weight = 1 + rng.Int63n(5)
	}
	return ws
}

// mineCount is DESQ-COUNT, the oracle MineDFS is held to: it enumerates
// Gσπ(T) for every sequence T (fst.FST.ForEachDistinctCandidate), sums the
// sequences' weights per candidate in a map, and reports the candidates whose
// support reaches sigma, sorted by miner.SortPatterns.
func mineCount(f *fst.FST, db []miner.WeightedSequence, sigma int64) []miner.Pattern {
	counts := map[string]*miner.Pattern{}
	var key []byte
	for _, ws := range db {
		f.ForEachDistinctCandidate(ws.Items, sigma, func(cand []dict.ItemID) bool {
			key = key[:0]
			for _, w := range cand {
				key = binary.AppendUvarint(key, uint64(w))
			}
			p := counts[string(key)]
			if p == nil {
				p = &miner.Pattern{Items: slices.Clone(cand)}
				counts[string(key)] = p
			}
			p.Freq += ws.Weight
			return true
		})
	}
	var out []miner.Pattern
	for _, p := range counts {
		if p.Freq >= sigma {
			out = append(out, *p)
		}
	}
	miner.SortPatterns(out)
	return out
}

// checkMatchesMineCount holds MineDFS to mineCount, which enumerates every
// sequence's candidates and sums their weights and shares neither the scan
// nor its supports: MineDFS on one and on two workers must return exactly
// mineCount's patterns, and on every pivot partition, with and without early
// stopping, exactly those of them whose largest item is the pivot. It returns
// the number of patterns mineCount reports.
func checkMatchesMineCount(t *testing.T, name string, f *fst.FST, db []miner.WeightedSequence, sigma int64) int {
	t.Helper()
	want := mineCount(f, db, sigma)
	for _, workers := range []int{1, 2} {
		if got := miner.MineDFS(f, db, sigma, miner.DFSOptions{Workers: workers}); !samePatterns(got, want) {
			t.Fatalf("%s over %v at sigma %d on %d workers:\n got %v\nwant %v", name, db, sigma, workers, got, want)
		}
	}
	for pivot := dict.ItemID(1); int(pivot) <= f.Dict().Size(); pivot++ {
		var part []miner.Pattern
		for _, p := range want {
			if dict.PivotOf(p.Items) == pivot {
				part = append(part, p)
			}
		}
		for _, early := range []bool{false, true} {
			got := miner.MineDFS(f, db, sigma, miner.DFSOptions{Pivot: pivot, EarlyStopping: early})
			if !samePatterns(got, part) {
				t.Fatalf("%s over %v at sigma %d, pivot %d, early stopping %v:\n got %v\nwant %v",
					name, db, sigma, pivot, early, got, part)
			}
		}
	}
	return len(want)
}

// FuzzMineDFSMatchesMineCount takes a hierarchy, a database, an expression
// and two thresholds from the fuzzer (genCase) and a seed for weights of 1–5
// per sequence: at both thresholds, MineDFS must agree with DESQ-COUNT
// (checkMatchesMineCount) — the weighted supports DESQ-DFS counts in its scan
// against an oracle that does not run it.
func FuzzMineDFSMatchesMineCount(f *testing.F) {
	for _, s := range mineCountSeeds {
		f.Add(s.data, s.seed, s.s1, s.s2)
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64, s1, s2 uint8) {
		if len(data) > 512 {
			return
		}
		d, db, expr := genCase(data)
		fm, err := fst.Compile(expr, d)
		if err != nil || fm.NumStates() > 256 {
			return
		}
		ws := withWeights(db, seed)
		for _, sigma := range []int64{1 + int64(s1%16), 1 + int64(s2%16)} {
			checkMatchesMineCount(t, expr, fm, ws, sigma)
		}
	})
}
