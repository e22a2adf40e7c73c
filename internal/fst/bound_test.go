package fst_test

import (
	"errors"
	"runtime"
	"testing"

	"seqmine/internal/experiments"
	"seqmine/internal/fst"
	"seqmine/internal/paperex"
	"seqmine/internal/patex"
)

// TestCompileStateBound: nested repeats multiply the automaton, and an
// expression past the compile stage's state bound fails with
// ErrTooManyStates before its automaton is built. `(.{0,60}){0,60}` (3,601
// states and 126 MB of tables without the bound) stops after a few hundred
// kilobytes. `.{0,k}` needs 2k+1 builder states, so k = 511 is the last to
// compile.
func TestCompileStateBound(t *testing.T) {
	d := paperex.Dict()
	for _, expr := range []string{"(.{0,60}){0,60}", "(.{1000000000}){1000000000}", ".{0,512}"} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f, err := fst.Compile(expr, d)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, fst.ErrTooManyStates) || f != nil {
			t.Fatalf("%q: Compile = %v, %v; want ErrTooManyStates", expr, f, err)
		}
		if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > 2 {
			t.Errorf("%q: failing took %.1f MiB, want ≤ 2", expr, mb)
		}
		if n, _ := fst.BuilderStates(expr, d); n > fst.MaxStates+2 {
			t.Errorf("%q: the builder made %d states before stopping, bound %d", expr, n, fst.MaxStates)
		}
	}
	if n, err := fst.BuilderStates(".{0,511}", d); err != nil || n != fst.MaxStates-1 {
		t.Fatalf(".{0,511}: %d builder states, %v; want %d, nil", n, err, fst.MaxStates-1)
	}
	if _, err := fst.Compile(".{0,511}", d); err != nil {
		t.Fatalf(".{0,511}: %v", err)
	}
}

// FuzzCompile feeds arbitrary expression text — POST /mine's and the worker
// job spec's one untrusted text input — through patex.Parse and fst.Compile
// against the running example's dictionary. Neither may panic; Compile fails
// whenever Parse does, and what compiles took at most MaxStates builder
// states, which bound its states.
func FuzzCompile(f *testing.F) {
	for _, expr := range flatTestPatterns {
		f.Add(expr)
	}
	for _, expr := range []string{
		paperex.PatternExpression, experiments.T1Expr(5), experiments.T2Expr(0, 5), experiments.T3Expr(1, 5),
		"(.{0,60}){0,60}", ".{0,511}", "(.?){0,340}", "[(A)|a1=|.]{1,70}", "(A^=)", "((.)", "{2}", "a{3,1}", "",
	} {
		f.Add(expr)
	}
	d := paperex.Dict()
	f.Fuzz(func(t *testing.T, expr string) {
		_, perr := patex.Parse(expr)
		fm, err := fst.Compile(expr, d)
		switch {
		case perr != nil && err == nil:
			t.Fatalf("%q: Parse fails (%v) but Compile does not", expr, perr)
		case err != nil:
			if fm != nil {
				t.Fatalf("%q: Compile returned an FST with error %v", expr, err)
			}
		}
		if n, berr := fst.BuilderStates(expr, d); err == nil && (n > fst.MaxStates || fm.NumStates() > n) {
			t.Fatalf("%q: %d builder states, %d states, bound %d", expr, n, fm.NumStates(), fst.MaxStates)
		} else if errors.Is(err, fst.ErrTooManyStates) != errors.Is(berr, fst.ErrTooManyStates) {
			t.Fatalf("%q: Compile says %v, the builder %v", expr, err, berr)
		}
	})
}
