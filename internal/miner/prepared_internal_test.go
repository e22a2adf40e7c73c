package miner

import (
	"context"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"seqmine/internal/dict"
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

// TestPreparedKeepsLevel2: whatever the number of workers Prepare runs on, a
// Prepared keeps for every first item exactly what a one-worker root scan and
// a depth-1 scan of the item's projected database, both cut at sigma 1,
// yield: the item's support as a one-item pattern, and every (first,
// second) item pair's projected database and support — largest database
// first, back to back in one buffer of exactly their size — and Bytes counts
// every word of it.
func TestPreparedKeepsLevel2(t *testing.T) {
	d, seqs := paperex.RandomDatabase(rand.New(rand.NewSource(4)), 300, 8)
	checked := [2]int{} // one-item supports and pairs
	for _, expr := range []string{paperex.PatternExpression, "[.*(.)]{1,3}.*"} {
		f := fst.MustCompile(expr, d)
		wantSingles, wantPairs := depthOneScans(f, seqs)
		for _, support := range wantSingles {
			if support > 0 {
				checked[0]++
			}
		}
		checked[1] += len(wantPairs)
		for _, workers := range []int{1, 2, 3} {
			p := Prepare(context.Background(), f, seqs, workers)
			singles := map[dict.ItemID]int64{}
			for _, n := range p.singles {
				singles[n.items[0]] = n.support
			}
			if !maps.Equal(singles, wantSingles) {
				t.Errorf("%s on %d workers: one-item supports %v, want %v", expr, workers, singles, wantSingles)
			}
			st := &p.state
			if len(st.prefixes) != len(wantPairs) {
				t.Fatalf("%s on %d workers: %d pairs, want %d", expr, workers, len(st.prefixes), len(wantPairs))
			}
			end := 0
			for i, n := range st.prefixes {
				want, ok := wantPairs[n.items]
				if !ok || n.support != want.support || !slices.Equal(n.buf, want.buf) {
					t.Fatalf("%s on %d workers: pair %v has support %d and database %v, want %v (kept: %v)",
						expr, workers, n.items, n.support, n.buf, want, ok)
				}
				if i > 0 && len(n.buf) > len(st.prefixes[i-1].buf) {
					t.Errorf("%s on %d workers: pair %d's database is larger than pair %d's", expr, workers, i, i-1)
				}
				if len(n.buf) > 0 && &n.buf[0] != &st.projs[end] {
					t.Fatalf("%s on %d workers: pair %d's database does not follow pair %d's in projs", expr, workers, i, i-1)
				}
				end += len(n.buf)
			}
			if end != len(st.projs) || cap(st.projs) != end || cap(st.prefixes) != len(st.prefixes) || cap(p.singles) != len(p.singles) {
				t.Errorf("%s on %d workers: databases of %d words in projs of len %d cap %d; %d/%d pairs, %d/%d singles",
					expr, workers, end, len(st.projs), cap(st.projs), len(st.prefixes), cap(st.prefixes), len(p.singles), cap(p.singles))
			}
			want := 8*len(st.arena) + 4*end + (len(st.prefixes)+len(p.singles))*int(unsafe.Sizeof(node{})) +
				len(seqs)*int(unsafe.Sizeof(seqCache{})+unsafe.Sizeof(WeightedSequence{}))
			if p.Bytes() != int64(want) || cap(st.arena) != len(st.arena) {
				t.Errorf("%s on %d workers: Bytes() = %d, want %d", expr, workers, p.Bytes(), want)
			}
		}
	}
	if checked[0] == 0 || checked[1] < 2 {
		t.Fatalf("%d one-item supports and %d pairs; the check is vacuous", checked[0], checked[1])
	}
}

// depthOneScans runs the reference for TestPreparedKeepsLevel2 on one worker:
// the root scan of f over seqs and the depth-1 scan of every first item's
// projected database, cut at sigma 1. It returns the first items' supports as
// one-item patterns and every pair with a copy of its database.
func depthOneScans(f *fst.FST, seqs [][]dict.ItemID) (map[dict.ItemID]int64, map[[2]dict.ItemID]node) {
	m := newMiner(f, Weighted(seqs), 1, DFSOptions{})
	sh := sharedPool.Get().(*dfsShared)
	defer sh.release()
	sh.layOut(&m, 1)
	w := &sh.miners[0]
	w.setUp()
	root := w.scan(0, w.sc.rootProj)
	firsts := map[dict.ItemID][]int32{}
	for _, o := range root.order {
		firsts[dict.ItemID(o>>32)] = slices.Clone(root.exps[uint32(o)].buf)
	}
	singles, pairs := map[dict.ItemID]int64{}, map[[2]dict.ItemID]node{}
	for first, proj := range firsts {
		w.sc.prefix = append(w.sc.prefix[:0], first)
		fr := w.scan(1, proj)
		singles[first] = fr.support
		for _, o := range fr.order {
			e := &fr.exps[uint32(o)]
			items := [2]dict.ItemID{first, dict.ItemID(o >> 32)}
			pairs[items] = node{items: items, buf: slices.Clone(e.buf), support: e.support}
		}
	}
	return singles, pairs
}

// TestPrepareCancelledAtLevel2: a context cancelled after Prepare's root scan
// and merge, as its level-2 pass starts, stops that pass — keepPairs reports
// false, so Prepare returns nil — and leaves no goroutine behind.
func TestPrepareCancelledAtLevel2(t *testing.T) {
	d, seqs := paperex.RandomDatabase(rand.New(rand.NewSource(4)), 3000, 8)
	f := fst.MustCompile("[.*(.)]{1,3}.*", d)
	for _, workers := range []int{1, 2, 3} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		p := &Prepared{m: newMiner(f, Weighted(seqs), 1, DFSOptions{})}
		p.m.done = ctx.Done()
		sh := sharedPool.Get().(*dfsShared)
		p.cells = sh.layOut(&p.m, workers)
		if !sh.prepare() || len(sh.prefixes) == 0 {
			t.Fatalf("%d workers: the root scan failed or found no first item", workers)
		}
		cancel()
		if p.keepPairs(sh) {
			t.Errorf("%d workers: the level-2 pass ran to its end under a cancelled context", workers)
		}
		sh.release()
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d workers: %d goroutines before, %d after a cancelled level-2 pass", workers, before, runtime.NumGoroutine())
			}
		}
	}
}
