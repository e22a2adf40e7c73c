package miner

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"seqmine/internal/fst"
	"seqmine/internal/paperex"
)

// TestPreparedRetainsEveryMatrix: a Prepared keeps the row block of every
// accepted sequence — (len+1) rows of accept | prod | finish, Words() words
// each, the ones Reach and Productive compute — in one arena of exactly that
// size; a rejected sequence keeps no rows, and Bytes counts all of it.
func TestPreparedRetainsEveryMatrix(t *testing.T) {
	d, seqs := paperex.RandomDatabase(rand.New(rand.NewSource(4)), 300, 8)
	f := fst.MustCompile(paperex.PatternExpression, d)
	p := Prepare(context.Background(), f, seqs, 2)
	w := f.Words()
	words, accepted := 0, 0
	var blocks [][2]int // offset and length of every retained row block
	for i, T := range seqs {
		c := p.state.cache[i]
		n := (len(T) + 1) * w
		accept, finish, prod := make([]uint64, n), make([]uint64, n), make([]uint64, n)
		if !f.Reach(T, accept, finish, w) {
			if c.rows != -1 {
				t.Fatalf("sequence %d has no accepting run but keeps rows at %d", i, c.rows)
			}
			continue
		}
		f.Productive(T, accept, prod, w)
		if c.rows < 0 || c.rows+matrices*n > len(p.state.arena) {
			t.Fatalf("sequence %d: rows at %d outside the arena of %d words", i, c.rows, len(p.state.arena))
		}
		block := p.state.arena[c.rows:][:matrices*n]
		for r := 0; r <= len(T); r++ {
			row := block[r*matrices*w:]
			if !slices.Equal(row[:w], accept[r*w:][:w]) || !slices.Equal(row[prodAt*w:][:w], prod[r*w:][:w]) ||
				!slices.Equal(row[finishAt*w:][:w], finish[r*w:][:w]) {
				t.Fatalf("sequence %d row %d: retained rows differ from Reach and Productive", i, r)
			}
		}
		accepted++
		words += matrices * n
		blocks = append(blocks, [2]int{c.rows, matrices * n})
	}
	if accepted == 0 || accepted == len(seqs) {
		t.Fatalf("%d of %d sequences accepted; the check is vacuous", accepted, len(seqs))
	}
	if len(p.state.arena) != words {
		t.Errorf("arena holds %d words, the matrices %d", len(p.state.arena), words)
	}
	slices.SortFunc(blocks, func(a, b [2]int) int { return a[0] - b[0] })
	for i, end := 0, 0; i < len(blocks); i++ {
		if blocks[i][0] != end {
			t.Fatalf("row block %d starts at %d, the previous one ends at %d", i, blocks[i][0], end)
		}
		end += blocks[i][1]
	}
	if p.Bytes() < int64(8*words) {
		t.Errorf("Bytes() = %d, less than the %d bytes of matrices", p.Bytes(), 8*words)
	}
}
