package miner_test

import (
	"bytes"
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
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

// checkPrepared asserts that one Prepared of f over db — built on 1, 2 and 3
// workers — returns exactly MineDFS(f, Weighted(db), sigma, DFSOptions{}),
// order included, when mined on 1, 2 and 8 workers at the sigmas in descending
// and then in ascending order, and again from four goroutines at different
// sigmas at once; and that MineCount gives the same answers. It returns the
// number of patterns the sigmas report together.
func checkPrepared(t *testing.T, name string, f *fst.FST, db [][]dict.ItemID, sigmas []int64) int {
	t.Helper()
	ctx := context.Background()
	want := map[int64][]miner.Pattern{}
	reported := 0
	for _, sigma := range sigmas {
		want[sigma] = miner.MineDFS(f, miner.Weighted(db), sigma, miner.DFSOptions{})
		reported += len(want[sigma])
		if got := miner.MineCount(ctx, f, miner.Weighted(db), sigma, 1); !samePatterns(got, want[sigma]) {
			t.Fatalf("%s sigma %d: MineCount\n got %v\nwant %v", name, sigma, got, want[sigma])
		}
	}
	order := slices.Clone(sigmas)
	slices.Sort(order)
	slices.Reverse(order)
	for i := len(order) - 1; i >= 0; i-- {
		order = append(order, order[i])
	}
	for _, prepareWorkers := range []int{1, 2, 3} {
		p := miner.Prepare(ctx, f, db, prepareWorkers)
		if p == nil || p.Bytes() < int64(32*len(db)) {
			t.Fatalf("%s: Prepare on %d workers = %+v", name, prepareWorkers, p)
		}
		for _, workers := range []int{1, 2, 8} {
			for _, sigma := range order {
				var split miner.SplitStats
				got := p.Mine(ctx, sigma, workers, &split)
				if !samePatterns(got, want[sigma]) {
					t.Fatalf("%s sigma %d: Prepared (%d workers) mined on %d\n got %v\nwant %v",
						name, sigma, prepareWorkers, workers, got, want[sigma])
				}
				if w := max(1, min(workers, len(db))); split.Workers != w {
					t.Errorf("%s: split.Workers = %d, want %d", name, split.Workers, w)
				}
				if len(got) > 0 && (split.Tasks == 0 || split.LargestTaskShare <= 0 || split.LargestTaskShare > 1) {
					t.Errorf("%s sigma %d: %d patterns from split %+v", name, sigma, len(got), split)
				}
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sigma := sigmas[g%len(sigmas)]
				for rep := 0; rep < 3; rep++ {
					if got := p.Mine(ctx, sigma, 1+g%3, nil); !samePatterns(got, want[sigma]) {
						t.Errorf("%s sigma %d: concurrent Mine %d\n got %v\nwant %v", name, sigma, g, got, want[sigma])
					}
				}
			}()
		}
		wg.Wait()
	}
	return reported
}

// TestParallelMatchesSequential is the equivalence property of the parallel
// miners: on the running example and on random databases, with weights of one
// and above, unrestricted and per pivot with early stopping, MineDFS and
// MineCount on 2, 3 and 8 workers return the single-threaded MineDFS result,
// order included — and so does one Prepared of every unweighted database at
// every sigma (checkPrepared), also over random DAG hierarchies with generated
// expressions (genCase).
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
	raw := map[string][][]dict.ItemID{"running example": paperex.DB(d)}
	dbs := map[string][]miner.WeightedSequence{"running example": miner.Weighted(paperex.DB(d))}
	for trial := 0; trial < 4; trial++ {
		raw[fmt.Sprintf("random %d", trial)] = randomDB(rng, d, 10+30*trial, 7)
		db := miner.Weighted(raw[fmt.Sprintf("random %d", trial)])
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
		for name, db := range raw {
			reported += checkPrepared(t, fmt.Sprintf("%q on %s", expr, name), f, db, []int64{1, 2, 3, 6})
		}
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
	reported = 0
	for trial := 0; trial < 40; trial++ {
		data := make([]byte, 256)
		rng.Read(data)
		d, db, expr := genCase(data)
		f, err := fst.Compile(expr, d)
		if err != nil {
			t.Fatalf("generated expression %q does not compile: %v", expr, err)
		}
		reported += checkPrepared(t, fmt.Sprintf("generated %q", expr), f, db, []int64{1, 2, 4})
	}
	if reported == 0 {
		t.Fatal("no generated case reported a pattern; the property is vacuous")
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
		// Sigma 1, and sigma 100 above every support: no task at all.
		checkPrepared(t, c.name, fst.MustCompile(c.expr, d), c.db, []int64{c.sigma, 1, 2, 100})
	}

	// A dictionary whose fids are not frequency-ordered: the miners test items
	// against sigma one by one, the Prepared's root scan against sigma 1.
	var saved bytes.Buffer
	if err := d.Save(&saved); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(saved.String()), "\n")
	slices.Reverse(lines)
	unsorted, err := dict.Load(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil || unsorted.FrequencySorted() {
		t.Fatalf("reversed dictionary: err %v, frequency-sorted %v", err, err == nil && unsorted.FrequencySorted())
	}
	redb := make([][]dict.ItemID, len(db))
	for i, T := range db {
		if redb[i], err = unsorted.EncodeSequence(d.DecodeSequence(T)); err != nil {
			t.Fatal(err)
		}
	}
	for _, expr := range []string{paperex.PatternExpression, "[.*(.)]{1,3}.*"} {
		if checkPrepared(t, "unsorted dictionary "+expr, fst.MustCompile(expr, unsorted), redb, []int64{1, 2, 3, 100}) == 0 {
			t.Errorf("unsorted dictionary %s: no patterns", expr)
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

// TestPreparedMineAllocations pins what a warm Prepared.Mine allocates: the
// reported patterns, each worker's result slice and the one fan-out — nothing
// per input sequence (no Weighted copy, no matrices), per task or per
// projected-database buffer.
func TestPreparedMineAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	d, seqs := paperex.RandomDatabase(rand.New(rand.NewSource(3)), 2000, 8)
	f := fst.MustCompile("[.*(.)]{1,3}.*", d)
	ctx := context.Background()
	const workers = 2
	p := miner.Prepare(ctx, f, seqs, workers)
	var split miner.SplitStats
	patterns := len(p.Mine(ctx, 40, workers, &split))
	if patterns < 50 || split.Tasks < 5 {
		t.Fatalf("%d patterns from %d tasks; the pin is vacuous", patterns, split.Tasks)
	}
	allocs := testing.AllocsPerRun(20, func() { p.Mine(ctx, 40, workers, nil) })
	// Per worker: the doublings of its result slice, its goroutine with its
	// closure, and a pooled scratch a collection emptied. 8: the concatenated
	// result, the wait group and fan-out closure, the sort's closure and
	// swapper, and the shared pool emptied by a collection.
	t.Logf("allocs %.0f patterns %d tasks %d", allocs, patterns, split.Tasks)
	if limit := float64(patterns + workers*(bits.Len(uint(patterns))+4) + 8); allocs > limit {
		t.Errorf("Prepared.Mine over %d sequences and %d tasks: %.0f allocs per call for %d patterns, want <= %.0f",
			len(seqs), split.Tasks, allocs, patterns, limit)
	}
}

// TestSequentialMineDFSAllocatesOnlyPatterns: the single-threaded call that
// D-SEQ's reducer makes per partition allocates nothing at all when it reports
// nothing — not even its own miner, which stays on the stack. (The partition
// pin's slack of six hides one allocation per call; the benchmark's
// alloc_mb_per_job on dseq-loose does not.)
func TestSequentialMineDFSAllocatesOnlyPatterns(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	d, f, _ := runningExample(t)
	db := miner.Weighted(randomDB(rand.New(rand.NewSource(3)), d, 400, 8))
	opts := miner.DFSOptions{Pivot: d.MustFid("a1"), EarlyStopping: true}
	if n := len(miner.MineDFS(f, db, 1000, opts)); n != 0 {
		t.Fatalf("%d patterns at sigma 1000", n)
	}
	if allocs := testing.AllocsPerRun(50, func() { miner.MineDFS(f, db, 1000, opts) }); allocs >= 1 {
		t.Errorf("a MineDFS that reports nothing allocates %.2f times per call, want 0", allocs)
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
