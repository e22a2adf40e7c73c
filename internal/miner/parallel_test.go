package miner_test

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"seqmine/internal/dict"
	"seqmine/internal/fst"
	"seqmine/internal/miner"
	"seqmine/internal/paperex"
)

var parallelWorkers = []int{2, 3, 8}

// samePatterns is reflect.DeepEqual, order included, except that a nil and an
// empty result are the same answer.
func samePatterns(a, b []miner.Pattern) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// checkParallel asserts that MineDFS on every worker count of parallelWorkers
// returns exactly the single-threaded result for opts, and — without a pivot
// restriction — that MineCount on one and on several workers does too.
func checkParallel(t *testing.T, name string, f *fst.FST, db []miner.WeightedSequence, sigma int64, opts miner.DFSOptions) []miner.Pattern {
	t.Helper()
	opts.Workers = 1
	want := miner.MineDFS(f, db, sigma, opts)
	for _, workers := range parallelWorkers {
		opts.Workers = workers
		var split miner.SplitStats
		opts.Split = &split
		if got := miner.MineDFS(f, db, sigma, opts); !samePatterns(got, want) {
			t.Fatalf("%s sigma %d %+v: MineDFS on %d workers\n got %v\nwant %v", name, sigma, opts, workers, got, want)
		}
		if w := max(1, min(workers, len(db))); split.Workers != w {
			t.Errorf("%s: split.Workers = %d, want %d", name, split.Workers, w)
		}
		if split.Workers > 1 && len(want) > 0 && (split.Tasks == 0 || split.LargestTaskShare <= 0 || split.LargestTaskShare > 1) {
			t.Errorf("%s: %d patterns from split %+v", name, len(want), split)
		}
	}
	if opts.Pivot == dict.None {
		for _, workers := range append([]int{1}, parallelWorkers...) {
			if got := miner.MineCount(context.Background(), f, db, sigma, workers); !samePatterns(got, want) {
				t.Fatalf("%s sigma %d: MineCount on %d workers\n got %v\nwant %v", name, sigma, workers, got, want)
			}
		}
	}
	return want
}

// TestParallelMatchesSequential is the equivalence property of the parallel
// miners: on the running example and on random databases, with weights of one
// and above, unrestricted and per pivot with early stopping, MineDFS and
// MineCount on 2, 3 and 8 workers return the single-threaded MineDFS result,
// order included.
func TestParallelMatchesSequential(t *testing.T) {
	d := paperex.Dict()
	exprs := []string{
		paperex.PatternExpression,
		"[.*(.)]{1,3}.*",
		".*(A^)[.{0,1}(.)]{1,2}.*",
		".*(d) .* (b).*",
		".*[(A^=)|(c)] .* (b).*",
	}
	rng := rand.New(rand.NewSource(18))
	dbs := map[string][]miner.WeightedSequence{"running example": miner.Weighted(paperex.DB(d))}
	for trial := 0; trial < 4; trial++ {
		db := miner.Weighted(randomDB(rng, d, 10+30*trial, 7))
		dbs[fmt.Sprintf("random %d", trial)] = db
		heavy := append([]miner.WeightedSequence(nil), db...)
		for i := range heavy {
			heavy[i].Weight = int64(1 + rng.Intn(3))
		}
		dbs[fmt.Sprintf("random %d weighted", trial)] = heavy
	}
	reported := 0
	for _, expr := range exprs {
		f := fst.MustCompile(expr, d)
		for name, db := range dbs {
			for _, sigma := range []int64{1, 2, 3, 6} {
				name := fmt.Sprintf("%q on %s", expr, name)
				reported += len(checkParallel(t, name, f, db, sigma, miner.DFSOptions{}))
				for pivot := dict.ItemID(1); int(pivot) <= d.Size(); pivot++ {
					reported += len(checkParallel(t, name, f, db, sigma, miner.DFSOptions{Pivot: pivot, EarlyStopping: true}))
				}
			}
		}
	}
	if reported == 0 {
		t.Fatal("no case reported a pattern; the property is vacuous")
	}
}

// TestParallelEdgeInputs runs the same check on the inputs where ranges or
// tasks degenerate.
func TestParallelEdgeInputs(t *testing.T) {
	d, _, db := runningExample(t)
	t3, _ := d.EncodeSequence([]string{"c", "d", "c", "b"}) // no accepting run
	withEmpty := [][]dict.ItemID{nil, db[0], {}, db[1], nil, nil, db[4], {}}
	cases := []struct {
		name     string
		expr     string
		db       [][]dict.ItemID
		sigma    int64
		patterns bool
	}{
		{"empty database", paperex.PatternExpression, nil, 1, false},
		{"fewer sequences than workers", paperex.PatternExpression, db[:2], 1, true},
		{"every sequence rejected by Reach", paperex.PatternExpression, [][]dict.ItemID{t3, t3, t3, t3, t3}, 1, false},
		{"empty sequences among the others", paperex.PatternExpression, withEmpty, 1, true},
		{"only empty sequences", paperex.PatternExpression, [][]dict.ItemID{nil, {}, nil, {}}, 1, false},
		{"root support under sigma", paperex.PatternExpression, db, 100, false},
		// Every candidate starts with d: one first-level task however many
		// workers there are.
		{"a single first-level item", ".*(d) .* (b).*", db, 1, true},
	}
	for _, c := range cases {
		got := checkParallel(t, c.name, fst.MustCompile(c.expr, d), miner.Weighted(c.db), c.sigma, miner.DFSOptions{})
		if (len(got) > 0) != c.patterns {
			t.Errorf("%s: %d patterns, want some: %v", c.name, len(got), c.patterns)
		}
	}
	var split miner.SplitStats
	miner.MineDFS(fst.MustCompile(".*(d) .* (b).*", d), miner.Weighted(db), 1, miner.DFSOptions{Workers: 3, Split: &split})
	if want := (miner.SplitStats{Workers: 3, Tasks: 1, LargestTaskShare: 1}); split != want {
		t.Errorf("a single first-level item: split = %+v, want %+v", split, want)
	}
}

// TestParallelMineDFSAllocations pins what a warm parallel MineDFS allocates:
// the reported patterns, each worker's result slice and the goroutines and
// closures of the two fan-outs — nothing per input sequence, per task or per
// projected-database buffer, all of which are pooled.
func TestParallelMineDFSAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	d, seqs := paperex.RandomDatabase(rand.New(rand.NewSource(3)), 2000, 8)
	f := fst.MustCompile("[.*(.)]{1,3}.*", d)
	db := miner.Weighted(seqs)
	const workers = 2
	var split miner.SplitStats
	opts := miner.DFSOptions{Workers: workers, Split: &split}
	patterns := len(miner.MineDFS(f, db, 40, opts))
	if patterns < 50 || split.Tasks < 5 {
		t.Fatalf("%d patterns from %d tasks; the pin is vacuous", patterns, split.Tasks)
	}
	allocs := testing.AllocsPerRun(20, func() { miner.MineDFS(f, db, 40, opts) })
	// Per worker: the doublings of its result slice, its two goroutines with
	// their closures, and a pooled scratch a collection emptied. 12: the
	// concatenated result, the wait groups and fan-out closures, the two sorts'
	// closures and swappers, and the shared pool emptied by a collection.
	t.Logf("allocs %.0f patterns %d tasks %d", allocs, patterns, split.Tasks)
	if limit := float64(patterns + workers*(bits.Len(uint(patterns))+6) + 12); allocs > limit {
		t.Errorf("parallel MineDFS over %d sequences and %d tasks: %.0f allocs per call for %d patterns, want <= %.0f",
			len(db), split.Tasks, allocs, patterns, limit)
	}
}

// TestMinersObserveCancellation: a cancelled context makes both miners return
// nil, at once when it is cancelled on entry and well before the mining would
// have ended when it is cancelled mid-run, on one worker and on several.
func TestMinersObserveCancellation(t *testing.T) {
	d, _, _ := runningExample(t)
	f := fst.MustCompile("[.*(.)]{1,4}.*", d)
	// Sized so that half a mining dwarfs the 10-20 ms a timer can be late
	// while every P is busy.
	n := 60000
	if raceEnabled {
		n = 12000 // the detector slows mining about tenfold
	}
	db := miner.Weighted(randomDB(rand.New(rand.NewSource(5)), d, n, 10))
	miners := map[string]func(ctx context.Context, workers int) []miner.Pattern{
		"MineDFS": func(ctx context.Context, workers int) []miner.Pattern {
			return miner.MineDFS(f, db, 2, miner.DFSOptions{Workers: workers, Context: ctx})
		},
		"MineCount": func(ctx context.Context, workers int) []miner.Pattern {
			return miner.MineCount(ctx, f, db, 2, workers)
		},
	}
	for name, mine := range miners {
		for _, workers := range []int{1, 2} {
			start := time.Now()
			if len(mine(context.Background(), workers)) == 0 {
				t.Fatalf("%s: no patterns", name)
			}
			full := time.Since(start)

			before := runtime.NumGoroutine()
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			if got := mine(cancelled, workers); got != nil {
				t.Errorf("%s on %d workers with a cancelled context returned %d patterns", name, workers, len(got))
			}
			ctx, cancel := context.WithTimeout(context.Background(), full/20)
			start = time.Now()
			got := mine(ctx, workers)
			took := time.Since(start)
			cancel()
			t.Logf("%s workers %d: full %v, cancelled run took %v", name, workers, full, took)
			if got != nil || took > full/2 {
				t.Errorf("%s on %d workers, cancelled after %v of %v: returned %d patterns after %v",
					name, workers, full/20, full, len(got), took)
			}
			// A worker has called Done but may not have exited yet.
			for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s on %d workers: %d goroutines before, %d after a cancelled call", name, workers, before, runtime.NumGoroutine())
				}
			}
		}
	}
}
