package miner_test

import (
	"context"
	"fmt"
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
// alternation and repetition. Exhausted input reads as zeros.
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
	return d, db, ".*" + expr(3) + ".*"
}

// FuzzPreparedMatchesMineDFS takes a hierarchy, a database, an expression and
// two thresholds from the fuzzer (genCase): one Prepared, built on two
// workers and mined at both thresholds — the second call sees whatever the
// first left in the pools — must return exactly the single-threaded MineDFS
// result each time.
func FuzzPreparedMatchesMineDFS(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint8(2))
	f.Add([]byte{5, 0, 1, 0, 2, 0, 1, 1, 9, 3, 0, 1, 2, 4, 3, 2, 1, 2, 3, 1, 7, 7, 7, 7}, uint8(2), uint8(1))
	f.Add([]byte("a small hierarchy, a database and an expression from bytes"), uint8(3), uint8(1))
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
