package miner

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"seqmine/internal/fst"
	"seqmine/internal/paperex"
)

// TestPreparedRetainsEveryMatrix: a Prepared keeps the accept, finish and prod
// rows of every accepted sequence — (len+1)·Words() words each, the ones Reach
// and Productive compute — in one arena of exactly that size, and Bytes counts
// all of it.
func TestPreparedRetainsEveryMatrix(t *testing.T) {
	d, seqs := paperex.RandomDatabase(rand.New(rand.NewSource(4)), 300, 8)
	f := fst.MustCompile(paperex.PatternExpression, d)
	fl := f.Flatten()
	p := Prepare(context.Background(), f, seqs, 2)
	words, accepted := 0, 0
	for i, T := range seqs {
		c := p.state.cache[i]
		n := (len(T) + 1) * fl.Words()
		accept, finish, prod := make([]uint64, n), make([]uint64, n), make([]uint64, n)
		if !fl.Reach(T, accept, finish) {
			if c.accept != nil || c.finish != nil || c.prod != nil {
				t.Fatalf("sequence %d has no accepting run but keeps matrices", i)
			}
			continue
		}
		fl.Productive(T, accept, prod)
		if !slices.Equal(c.accept, accept) || !slices.Equal(c.finish, finish) || !slices.Equal(c.prod, prod) {
			t.Fatalf("sequence %d: retained matrices differ from Reach and Productive", i)
		}
		accepted++
		words += matrices * n
	}
	if accepted == 0 || accepted == len(seqs) {
		t.Fatalf("%d of %d sequences accepted; the check is vacuous", accepted, len(seqs))
	}
	if len(p.state.arena) != words {
		t.Errorf("arena holds %d words, the matrices %d", len(p.state.arena), words)
	}
	if p.Bytes() < int64(8*words) {
		t.Errorf("Bytes() = %d, less than the %d bytes of matrices", p.Bytes(), 8*words)
	}
}
