package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"seqmine/internal/fst"
	"seqmine/internal/paperex"
	"seqmine/internal/plan"
	"seqmine/internal/seqdb"
)

// TestCancelledSequentialQueryReleasesPromptly: a dfs or count query that is
// cancelled 10 ms in returns the context's error, and its mining goroutine —
// which holds the admission slot and the dataset lease until onDone — ends
// well before the mining would have, leaving no goroutine behind. (Under the
// two-phase executor a cancelled query mined to the end.) So does a dfs query
// of a Service cancelled while it builds the prepared state (cancelledPrepare).
func TestCancelledSequentialQueryReleasesPromptly(t *testing.T) {
	d, seqs := paperex.RandomDatabase(rand.New(rand.NewSource(11)), 40000, 10)
	db := &seqdb.Database{Dict: d, Sequences: seqs}
	f := fst.MustCompile("[.*(.)]{1,4}.*", d)
	for _, c := range []struct {
		algo    Algorithm
		workers int
	}{{AlgoDFS, 1}, {AlgoDFS, 2}, {AlgoCount, 2}} {
		t.Run(fmt.Sprintf("%s-%d", c.algo, c.workers), func(t *testing.T) {
			opts := ExecOptions{Plan: plan.Plan{Algorithm: c.algo, Workers: c.workers}}
			start := time.Now()
			if patterns, _, _, err := Execute(context.Background(), f, db, 2, opts); err != nil || len(patterns) == 0 {
				t.Fatalf("uncancelled query: %d patterns, err %v", len(patterns), err)
			}
			full := time.Since(start)

			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan time.Time, 1)
			start = time.Now()
			time.AfterFunc(10*time.Millisecond, cancel)
			_, _, _, err := execute(ctx, f, db, 2, opts, func() { done <- time.Now() }, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled query returned %v, want context.Canceled", err)
			}
			held := (<-done).Sub(start)
			t.Logf("mines for %v, cancelled after 10ms: resources held for %v", full, held)
			if held > 10*time.Millisecond+full/3 {
				t.Errorf("cancelled after 10ms, the query held its resources for %v of a %v mining", held, full)
			}
			waitForGoroutines(t, before)
		})
	}
	t.Run("dfs-prepare", cancelledPrepare)
}

// waitForGoroutines fails the test unless the goroutine count falls back to
// the level recorded before the code under test ran.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
