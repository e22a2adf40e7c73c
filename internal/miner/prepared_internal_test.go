package miner

import (
	"context"
	"fmt"
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
// accepted sequence — (len+1) rows of accept, prod and finish at the FST's
// RowLayout, the ones Rows computes, and the item in a packed row — in one
// arena of exactly that size; a rejected sequence keeps no rows, and Bytes
// counts all of it. The rows are decoded through the layout, on an automaton
// with packed rows and one of more than 8 states without.
func TestPreparedRetainsEveryMatrix(t *testing.T) {
	d, seqs := paperex.RandomDatabase(rand.New(rand.NewSource(4)), 300, 8)
	for _, expr := range []string{paperex.PatternExpression, ".*(A^)[.{0,2}(.)]{1,3}.*"} {
		f := fst.MustCompile(expr, d)
		l := f.RowLayout(false)
		if l.Packed != (f.NumStates() <= 8) {
			t.Fatalf("%s: %d states, packed rows %v", expr, f.NumStates(), l.Packed)
		}
		p := Prepare(context.Background(), f, seqs, 2)
		words, accepted := 0, 0
		var blocks [][2]int // offset and length of every retained row block
		for i, T := range seqs {
			c := p.state.cache[i]
			n := (len(T) + 1) * l.Stride
			want := make([]uint64, n)
			if !f.Rows(T, dict.None, want) {
				if c.rows != -1 {
					t.Fatalf("%s: sequence %d has no accepting run but keeps rows at %d", expr, i, c.rows)
				}
				continue
			}
			if c.rows < 0 || c.rows+n > len(p.state.arena) {
				t.Fatalf("%s: sequence %d: rows at %d outside the arena of %d words", expr, i, c.rows, len(p.state.arena))
			}
			block := p.state.arena[c.rows:][:n]
			for r := 0; r <= len(T); r++ {
				if l.Packed && r < len(T) && dict.ItemID(block[r]>>32) != T[r] {
					t.Fatalf("%s: sequence %d row %d holds item %d, want %d", expr, i, r, block[r]>>32, T[r])
				}
				for _, m := range []int{fst.Accept, fst.Prod, fst.Finish} {
					for q := 0; q < f.NumStates(); q++ {
						at, shift := r*l.Stride+l.Word[m]+q>>6, l.Shift[m]+q&63
						if block[at]>>shift&1 != want[at]>>shift&1 {
							t.Fatalf("%s: sequence %d row %d: matrix %d, state %d differs from Rows", expr, i, r, m, q)
						}
					}
				}
			}
			accepted++
			words += n
			blocks = append(blocks, [2]int{c.rows, n})
		}
		if accepted == 0 || accepted == len(seqs) {
			t.Fatalf("%s: %d of %d sequences accepted; the check is vacuous", expr, accepted, len(seqs))
		}
		if len(p.state.arena) != words {
			t.Errorf("%s: arena holds %d words, the matrices %d", expr, len(p.state.arena), words)
		}
		slices.SortFunc(blocks, func(a, b [2]int) int { return a[0] - b[0] })
		for i, end := 0, 0; i < len(blocks); i++ {
			if blocks[i][0] != end {
				t.Fatalf("%s: row block %d starts at %d, the previous one ends at %d", expr, i, blocks[i][0], end)
			}
			end += blocks[i][1]
		}
		if p.Bytes() < int64(8*words) {
			t.Errorf("%s: Bytes() = %d, less than the %d bytes of matrices", expr, p.Bytes(), 8*words)
		}
	}
}

// TestPreparedKeepsLevel3: whatever the number of workers Prepare runs on, a
// Prepared keeps exactly what one worker's root scan and scans of every first
// item and every item pair, all cut at sigma 1, yield: the support of every
// one- and two-item prefix as a pattern, and every item triple's projected
// database and support — largest database first, back to back in one buffer
// of exactly their size — unless those databases and nodes take more bytes
// than the Prepared holds without them; then it keeps the pairs' databases
// and supports in their place, and only the first items' supports as
// patterns. Bytes counts every word of it, and the suite reaches both depths.
func TestPreparedKeepsLevel3(t *testing.T) {
	reached := map[int]int{} // kept depth → cases
	checked := 0             // kept supports and databases compared
	for _, c := range []struct {
		maxLen int
		expr   string
	}{
		{8, paperex.PatternExpression}, {8, "[.*(.)]{1,3}.*"}, {8, ".*(A^)[.{0,1}(.)]{1,2}.*"},
		// Longer sequences: the loose expression's triples outweigh the rest.
		{12, ".*(A^)[.{0,1}(.)]{1,2}.*"}, {12, "[.*(.)]{1,3}.*"},
	} {
		d, seqs := paperex.RandomDatabase(rand.New(rand.NewSource(4)), 300, c.maxLen)
		expr := fmt.Sprintf("%s over sequences of up to %d items", c.expr, c.maxLen)
		f := fst.MustCompile(c.expr, d)
		level2, level3 := levelScans(f, seqs, 2), levelScans(f, seqs, 3)
		var depths []int
		for _, workers := range []int{1, 2, 3} {
			p := Prepare(context.Background(), f, seqs, workers)
			_, depth := p.TasksReaching(1)
			want := level3
			if depth == 2 {
				want = level2
			}
			depths = append(depths, depth)
			kept := map[[keptDepth]dict.ItemID]int64{}
			for _, n := range p.kept {
				kept[n.items] = n.support
			}
			if !maps.Equal(kept, want.kept) {
				t.Errorf("%s on %d workers: kept supports %v, want %v", expr, workers, kept, want.kept)
			}
			st := &p.state
			if len(st.prefixes) != len(want.deepest) {
				t.Fatalf("%s on %d workers: %d prefixes of %d items, want %d", expr, workers, len(st.prefixes), depth, len(want.deepest))
			}
			for i := range st.prefixes {
				n := &st.prefixes[i]
				w, ok := want.deepest[n.items]
				if !ok || n.support != w.support || !slices.Equal(st.db(n), w.db) {
					t.Fatalf("%s on %d workers: prefix %v has support %d and database %v, want %v (kept: %v)",
						expr, workers, n.items, n.support, st.db(n), w, ok)
				}
				if i > 0 && n.words() > st.prefixes[i-1].words() {
					t.Errorf("%s on %d workers: prefix %d's database is larger than prefix %d's", expr, workers, i, i-1)
				}
			}
			// The databases tile projs, which has exactly their size.
			tiles := slices.SortedFunc(slices.Values(st.prefixes), func(a, b node) int { return a.off - b.off })
			end := 0
			for _, n := range tiles {
				if n.off != end {
					t.Fatalf("%s on %d workers: prefix %v's database starts at %d, the previous one ends at %d", expr, workers, n.items, n.off, end)
				}
				end = n.end
			}
			if end != len(st.projs) || cap(st.projs) != end || cap(st.prefixes) != len(st.prefixes) || cap(p.kept) != len(p.kept) {
				t.Errorf("%s on %d workers: databases of %d words in projs of len %d cap %d; %d/%d prefixes, %d/%d kept",
					expr, workers, end, len(st.projs), cap(st.projs), len(st.prefixes), cap(st.prefixes), len(p.kept), cap(p.kept))
			}
			bytes := func(l levelScan) int64 {
				return int64(8*len(st.arena) + l.bytes + (len(l.deepest)+len(l.kept))*int(unsafe.Sizeof(node{})) +
					len(seqs)*int(unsafe.Sizeof(seqCache{})+unsafe.Sizeof(WeightedSequence{})))
			}
			if p.Bytes() != bytes(want) || cap(st.arena) != len(st.arena) {
				t.Errorf("%s on %d workers: Bytes() = %d, want %d", expr, workers, p.Bytes(), bytes(want))
			}
			// The bound: the triples' databases and nodes against the level-2
			// Prepared's bytes.
			triples := int64(level3.bytes + len(level3.deepest)*int(unsafe.Sizeof(node{})))
			if over := triples > bytes(level2); over != (depth == 2) {
				t.Errorf("%s on %d workers: triples take %d bytes against %d kept at level 2, yet the Prepared keeps depth %d",
					expr, workers, triples, bytes(level2), depth)
			}
			checked += len(p.kept) + len(st.prefixes)
		}
		if slices.Min(depths) != slices.Max(depths) {
			t.Errorf("%s: kept depths %v on 1, 2 and 3 workers", expr, depths)
		}
		reached[depths[0]]++
	}
	if checked < 10 || reached[2] == 0 || reached[3] == 0 {
		t.Fatalf("%d kept supports and databases, kept depths %v; the check is vacuous", checked, reached)
	}
}

// levelScan is the reference of TestPreparedKeepsLevel3 for one depth: the
// support of every shorter prefix as a pattern, every prefix of the depth with
// a copy of its database and its support, and the bytes of those databases.
type levelScan struct {
	kept    map[[keptDepth]dict.ItemID]int64
	deepest map[[keptDepth]dict.ItemID]prefixDB
	bytes   int
}

// prefixDB is a prefix's projected database and support in the reference.
type prefixDB struct {
	db      []int32
	support int64
}

// levelScans runs the reference on one worker: the root scan of f over seqs
// and the scan of every prefix shorter than depth, cut at sigma 1.
func levelScans(f *fst.FST, seqs [][]dict.ItemID, depth int) levelScan {
	m := newMiner(f, Weighted(seqs), 1, DFSOptions{})
	sh := sharedPool.Get().(*dfsShared)
	defer sh.release()
	sh.layOut(&m, 1)
	w := &sh.miners[0]
	w.setUp()
	out := levelScan{kept: map[[keptDepth]dict.ItemID]int64{}, deepest: map[[keptDepth]dict.ItemID]prefixDB{}}
	var walk func(items [keptDepth]dict.ItemID, n prefixDB, at int)
	walk = func(items [keptDepth]dict.ItemID, n prefixDB, at int) {
		if at == depth {
			out.deepest[items] = n
			out.bytes += 4 * len(n.db)
			return
		}
		w.sc.prefix = append(w.sc.prefix[:0], items[:at]...)
		fr := w.scan(at, n.db)
		if at > 0 {
			out.kept[items] = fr.support
		}
		children := map[[keptDepth]dict.ItemID]prefixDB{}
		for _, o := range fr.order {
			e := &fr.exps[uint32(o)]
			child := items
			child[at] = dict.ItemID(o >> 32)
			children[child] = prefixDB{db: slices.Clone(e.buf), support: e.support}
		}
		for child, n := range children {
			walk(child, n, at+1)
		}
	}
	walk([keptDepth]dict.ItemID{}, prefixDB{db: w.sc.rootProj}, 0)
	return out
}

// TestPrepareCancelledAtLevel2: a context cancelled after Prepare's root
// scan and merge, as its level-2 pass starts, or after that pass, as the
// level-3 pass starts, stops the pass — keepLevel reports false, so Prepare
// returns nil — and leaves no goroutine behind.
func TestPrepareCancelledAtLevel2(t *testing.T) {
	d, seqs := paperex.RandomDatabase(rand.New(rand.NewSource(4)), 3000, 8)
	f := fst.MustCompile("[.*(.)]{1,3}.*", d)
	for _, workers := range []int{1, 2, 3} {
		for depth := 1; depth < keptDepth; depth++ {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			p := &Prepared{m: newMiner(f, Weighted(seqs), 1, DFSOptions{})}
			p.m.done = ctx.Done()
			sh := sharedPool.Get().(*dfsShared)
			p.cells = sh.layOut(&p.m, workers)
			if !sh.prepare() || len(sh.prefixes) == 0 {
				t.Fatalf("%d workers: the root scan failed or found no first item", workers)
			}
			p.retainMatrices(sh)
			for above := 1; above < depth; above++ {
				if !p.keepLevel(sh, above) || len(p.state.prefixes) == 0 {
					t.Fatalf("%d workers: the level-%d pass failed or kept no prefix", workers, above+1)
				}
			}
			cancel()
			if p.keepLevel(sh, depth) {
				t.Errorf("%d workers: the level-%d pass ran to its end under a cancelled context", workers, depth+1)
			}
			sh.release()
			for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d workers: %d goroutines before, %d after a cancelled level-%d pass",
						workers, before, runtime.NumGoroutine(), depth+1)
				}
			}
		}
	}
}
