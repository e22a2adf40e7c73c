// Package fst implements the finite state transducer model of DESQ (Sec. IV
// of the paper). A pattern expression is compiled into an FST whose accepting
// runs on an input sequence T generate exactly the candidate subsequences
// Gπ(T) of the subsequence predicate π described by the expression.
//
// Compile runs in two stages. The first builds the label-level automaton (a
// graph): the Thompson construction, ε-elimination, trimming and the merging
// of equivalent states. States are numbered 0..NumStates-1, and every
// transition consumes one input item; its Label describes both which input
// items it matches and which output items it produces (possibly none,
// written ε). The second stage flattens that graph into the tables every
// simulator runs on (flat.go), and the result is the one compiled form, FST.
package fst

import (
	"fmt"
	"sort"
	"strings"

	"seqmine/internal/dict"
	"seqmine/internal/patex"
)

// LabelKind distinguishes wildcard from item-based transition labels.
type LabelKind uint8

const (
	// KindDot matches any input item.
	KindDot LabelKind = iota
	// KindItem matches the label's Item or (unless Exact) any of its
	// descendants.
	KindItem
)

// Label is the input/output behaviour of one FST transition, derived from a
// single item expression of the pattern language.
type Label struct {
	Kind       LabelKind
	Item       dict.ItemID // referenced item for KindItem
	Exact      bool        // match only Item itself (the "=" marker)
	Generalize bool        // "^": outputs may generalize along the hierarchy
	ForceGen   bool        // "^=": output is always Item
	Captured   bool        // inside a capture group: produces output items
}

// Matches reports whether the label accepts input item t.
func (l Label) Matches(d *dict.Dictionary, t dict.ItemID) bool {
	switch l.Kind {
	case KindDot:
		return true
	default:
		if l.Exact {
			return t == l.Item
		}
		return d.IsA(t, l.Item)
	}
}

// Outputs returns the output set of the label for input item t, assuming the
// label matches t. A nil result denotes ε (no output). The result is sorted by
// ascending fid.
func (l Label) Outputs(d *dict.Dictionary, t dict.ItemID) []dict.ItemID {
	if !l.Captured {
		return nil
	}
	switch {
	case l.Kind == KindDot && !l.Generalize:
		return []dict.ItemID{t}
	case l.Kind == KindDot && l.Generalize:
		return d.Ancestors(t)
	case l.ForceGen:
		return []dict.ItemID{l.Item}
	case l.Exact:
		return []dict.ItemID{t}
	case l.Generalize:
		return d.AncestorsUpTo(t, l.Item)
	default:
		return []dict.ItemID{t}
	}
}

// String renders the label in pattern-expression syntax (for debugging).
func (l Label) String() string {
	s := ""
	if l.Kind == KindDot {
		s = "."
	} else {
		s = fmt.Sprintf("#%d", l.Item)
	}
	if l.Generalize {
		s += "^"
	}
	if l.Exact || l.ForceGen {
		s += "="
	}
	if l.Captured {
		s = "(" + s + ")"
	}
	return s
}

// Transition is one labeled edge of the FST.
type Transition struct {
	To    int
	Label Label
}

// maxStates bounds the states the Thompson builder may create for one
// expression, so that an expression past it fails before its automaton is
// built. Nested repeats multiply: unbounded, `(.{0,60}){0,60}` compiles to
// 3,601 states and takes 126 MB. The largest expression of the paper's Table
// III needs 47 builder states, T3(10,20) 448.
const maxStates = 1024

// ErrTooManyStates reports an expression whose automaton exceeds the state
// bound of the compile stage.
var ErrTooManyStates = fmt.Errorf("fst: expression needs more than %d automaton states", maxStates)

// graph is the label-level automaton, the first stage of Compile: the
// Thompson construction after ε-elimination, trimming and the merging of
// equivalent states. The FST's tables are built from it, and it stays behind
// them as the reference of Transitions.
type graph struct {
	initial int
	final   []bool
	trans   [][]Transition // outgoing transitions per state
}

// Compile parses the given pattern expression and compiles it for the
// dictionary. An expression whose automaton would exceed the compile stage's
// state bound fails with ErrTooManyStates.
func Compile(expression string, d *dict.Dictionary) (*FST, error) {
	ast, err := patex.Parse(expression)
	if err != nil {
		return nil, err
	}
	b := &builder{dict: d}
	start, end, err := b.compile(ast, false)
	if err == nil {
		err = b.err // the last states made may pass the bound
	}
	if err != nil {
		return nil, err
	}
	return newFST(b.finish(start, end), d), nil
}

// MustCompile is Compile for tests and examples; it panics on error.
func MustCompile(expression string, d *dict.Dictionary) *FST {
	f, err := Compile(expression, d)
	if err != nil {
		panic("fst: " + err.Error())
	}
	return f
}

// builder constructs a Thompson ε-NFA fragment and then eliminates ε
// transitions.
type builder struct {
	dict     *dict.Dictionary
	numState int
	eps      [][]int        // ε edges per state
	labeled  [][]Transition // labeled edges per state
	err      error          // ErrTooManyStates once past maxStates
}

// newState adds a state. Past maxStates it records ErrTooManyStates, which
// the next compile call returns, so at most a few states past the bound are
// made.
func (b *builder) newState() int {
	if b.numState == maxStates {
		b.err = ErrTooManyStates
	}
	b.numState++
	b.eps = append(b.eps, nil)
	b.labeled = append(b.labeled, nil)
	return b.numState - 1
}

func (b *builder) addEps(from, to int) {
	if from == to {
		return
	}
	b.eps[from] = append(b.eps[from], to)
}

func (b *builder) addLabeled(from, to int, l Label) {
	b.labeled[from] = append(b.labeled[from], Transition{To: to, Label: l})
}

// compile returns the (start, end) states of the fragment for node.
func (b *builder) compile(node patex.Node, captured bool) (int, int, error) {
	if b.err != nil {
		return 0, 0, b.err
	}
	switch t := node.(type) {
	case *patex.ItemExpr:
		return b.compileItem(t, captured)
	case *patex.Capture:
		return b.compile(t.Child, true)
	case *patex.Concat:
		start := -1
		end := -1
		for _, child := range t.Children {
			cs, ce, err := b.compile(child, captured)
			if err != nil {
				return 0, 0, err
			}
			if start == -1 {
				start, end = cs, ce
				continue
			}
			b.addEps(end, cs)
			end = ce
		}
		if start == -1 {
			s := b.newState()
			return s, s, nil
		}
		return start, end, nil
	case *patex.Union:
		start := b.newState()
		end := b.newState()
		for _, child := range t.Children {
			cs, ce, err := b.compile(child, captured)
			if err != nil {
				return 0, 0, err
			}
			b.addEps(start, cs)
			b.addEps(ce, end)
		}
		return start, end, nil
	case *patex.Repeat:
		return b.compileRepeat(t, captured)
	default:
		return 0, 0, fmt.Errorf("fst: unknown AST node %T", node)
	}
}

func (b *builder) compileItem(e *patex.ItemExpr, captured bool) (int, int, error) {
	l := Label{
		Generalize: e.Generalize,
		ForceGen:   e.ForceGen,
		Exact:      e.Exact,
		Captured:   captured,
	}
	if e.Wildcard {
		l.Kind = KindDot
	} else {
		fid, ok := b.dict.Fid(e.Item)
		if !ok {
			return 0, 0, fmt.Errorf("fst: pattern references unknown item %q", e.Item)
		}
		l.Kind = KindItem
		l.Item = fid
	}
	s := b.newState()
	t := b.newState()
	b.addLabeled(s, t, l)
	return s, t, nil
}

func (b *builder) compileRepeat(r *patex.Repeat, captured bool) (int, int, error) {
	start := b.newState()
	end := start
	// Mandatory copies.
	for i := 0; i < r.Min; i++ {
		cs, ce, err := b.compile(r.Child, captured)
		if err != nil {
			return 0, 0, err
		}
		b.addEps(end, cs)
		end = ce
	}
	if r.Unbounded {
		// Kleene star of one more copy.
		cs, ce, err := b.compile(r.Child, captured)
		if err != nil {
			return 0, 0, err
		}
		loopEnd := b.newState()
		b.addEps(end, cs)
		b.addEps(end, loopEnd)
		b.addEps(ce, cs)
		b.addEps(ce, loopEnd)
		return start, loopEnd, nil
	}
	// Optional copies up to Max.
	var skipTargets []int
	for i := r.Min; i < r.Max; i++ {
		cs, ce, err := b.compile(r.Child, captured)
		if err != nil {
			return 0, 0, err
		}
		b.addEps(end, cs)
		skipTargets = append(skipTargets, end)
		end = ce
	}
	for _, s := range skipTargets {
		b.addEps(s, end)
	}
	return start, end, nil
}

// finish eliminates ε transitions, trims unreachable and dead states and
// returns the merged graph.
func (b *builder) finish(start, end int) *graph {
	n := b.numState
	// ε-closures.
	closure := make([][]int, n)
	for s := 0; s < n; s++ {
		seen := make([]bool, n)
		stack := []int{s}
		seen[s] = true
		var cl []int
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cl = append(cl, u)
			for _, v := range b.eps[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		closure[s] = cl
	}

	final := make([]bool, n)
	trans := make([][]Transition, n)
	for s := 0; s < n; s++ {
		type edge struct {
			to    int
			label Label
		}
		seenEdge := map[edge]bool{}
		for _, u := range closure[s] {
			if u == end {
				final[s] = true
			}
			for _, tr := range b.labeled[u] {
				e := edge{to: tr.To, label: tr.Label}
				if !seenEdge[e] {
					seenEdge[e] = true
					trans[s] = append(trans[s], tr)
				}
			}
		}
	}

	// Forward reachability from the start state.
	reach := make([]bool, n)
	stack := []int{start}
	reach[start] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, tr := range trans[u] {
			if !reach[tr.To] {
				reach[tr.To] = true
				stack = append(stack, tr.To)
			}
		}
	}
	// Backward reachability from final states (dead-state trimming).
	rev := make([][]int, n)
	for u := 0; u < n; u++ {
		for _, tr := range trans[u] {
			rev[tr.To] = append(rev[tr.To], u)
		}
	}
	live := make([]bool, n)
	for s := 0; s < n; s++ {
		if final[s] && reach[s] {
			if !live[s] {
				live[s] = true
				stack = append(stack, s)
			}
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range rev[u] {
			if reach[v] && !live[v] {
				live[v] = true
				stack = append(stack, v)
			}
		}
	}
	live[start] = true // always keep the initial state

	// Renumber surviving states.
	id := make([]int, n)
	for i := range id {
		id[i] = -1
	}
	next := 0
	for s := 0; s < n; s++ {
		if reach[s] && live[s] {
			id[s] = next
			next++
		}
	}
	g := &graph{
		initial: id[start],
		final:   make([]bool, next),
		trans:   make([][]Transition, next),
	}
	for s := 0; s < n; s++ {
		if id[s] < 0 {
			continue
		}
		g.final[id[s]] = final[s]
		for _, tr := range trans[s] {
			if id[tr.To] < 0 {
				continue
			}
			g.trans[id[s]] = append(g.trans[id[s]], Transition{To: id[tr.To], Label: tr.Label})
		}
	}
	g.mergeEquivalentStates()
	return g
}

// mergeEquivalentStates repeatedly merges states that are forward-equivalent:
// same finality and identical outgoing transition sets. Merging such states
// preserves the runs (and therefore the generated candidate subsequences) of
// the FST while producing the compact self-loop structure of the paper's
// FSTs (e.g. ".*" becomes a single self-loop), which both speeds up
// simulation and makes "state change" a meaningful signal for the relevant-
// position computation of D-SEQ.
func (g *graph) mergeEquivalentStates() {
	for {
		n := len(g.final)
		// Group states by signature.
		repr := make([]int, n)
		for i := range repr {
			repr[i] = i
		}
		groups := map[string]int{}
		merged := false
		for q := 0; q < n; q++ {
			sig := g.stateSignature(q)
			if first, ok := groups[sig]; ok {
				repr[q] = first
				merged = true
			} else {
				groups[sig] = q
			}
		}
		if !merged {
			return
		}
		// Renumber surviving states.
		id := make([]int, n)
		next := 0
		for q := 0; q < n; q++ {
			if repr[q] == q {
				id[q] = next
				next++
			}
		}
		for q := 0; q < n; q++ {
			id[q] = id[repr[q]]
		}
		newFinal := make([]bool, next)
		newTrans := make([][]Transition, next)
		for q := 0; q < n; q++ {
			if repr[q] != q {
				continue
			}
			nq := id[q]
			newFinal[nq] = g.final[q]
			seen := map[Transition]bool{}
			for _, tr := range g.trans[q] {
				nt := Transition{To: id[tr.To], Label: tr.Label}
				if !seen[nt] {
					seen[nt] = true
					newTrans[nq] = append(newTrans[nq], nt)
				}
			}
		}
		g.initial = id[g.initial]
		g.final = newFinal
		g.trans = newTrans
	}
}

// stateSignature builds a canonical description of a state's finality and
// outgoing transitions.
func (g *graph) stateSignature(q int) string {
	keys := make([]string, 0, len(g.trans[q])+1)
	for _, tr := range g.trans[q] {
		keys = append(keys, fmt.Sprintf("%d/%d/%d/%t/%t/%t/%t", tr.To,
			tr.Label.Kind, tr.Label.Item, tr.Label.Exact, tr.Label.Generalize, tr.Label.ForceGen, tr.Label.Captured))
	}
	sort.Strings(keys)
	prefix := "n:"
	if g.final[q] {
		prefix = "f:"
	}
	return prefix + strings.Join(keys, "|")
}
