package patex

import (
	"strings"
	"testing"
)

// MustParse is Parse for the tests; it panics on error.
func MustParse(input string) Node {
	n, err := Parse(input)
	if err != nil {
		panic("patex: " + err.Error())
	}
	return n
}

func TestParseRunningExample(t *testing.T) {
	n, err := Parse(".*(A)[(.^).*]*(b).*")
	if err != nil {
		t.Fatal(err)
	}
	c, ok := n.(*Concat)
	if !ok {
		t.Fatalf("expected Concat at top level, got %T", n)
	}
	if len(c.Children) != 5 {
		t.Fatalf("expected 5 concat children, got %d: %v", len(c.Children), c)
	}
	// .*
	r0, ok := c.Children[0].(*Repeat)
	if !ok || r0.Min != 0 || !r0.Unbounded {
		t.Errorf("child 0 should be .*, got %v", c.Children[0])
	}
	if it, ok := r0.Child.(*ItemExpr); !ok || !it.Wildcard {
		t.Errorf("child 0 body should be wildcard")
	}
	// (A)
	cap1, ok := c.Children[1].(*Capture)
	if !ok {
		t.Fatalf("child 1 should be a capture, got %T", c.Children[1])
	}
	if it, ok := cap1.Child.(*ItemExpr); !ok || it.Item != "A" || it.Exact || it.Generalize {
		t.Errorf("child 1 should capture item A, got %v", cap1.Child)
	}
	// [(.^).*]*
	r2, ok := c.Children[2].(*Repeat)
	if !ok || !r2.Unbounded || r2.Min != 0 {
		t.Fatalf("child 2 should be an unbounded repeat, got %v", c.Children[2])
	}
	inner, ok := r2.Child.(*Concat)
	if !ok || len(inner.Children) != 2 {
		t.Fatalf("child 2 body should be a 2-element concat, got %v", r2.Child)
	}
	capGen, ok := inner.Children[0].(*Capture)
	if !ok {
		t.Fatalf("expected capture (.^), got %T", inner.Children[0])
	}
	if it, ok := capGen.Child.(*ItemExpr); !ok || !it.Wildcard || !it.Generalize {
		t.Errorf("expected (.^), got %v", capGen.Child)
	}
	// (b)
	if _, ok := c.Children[3].(*Capture); !ok {
		t.Errorf("child 3 should be a capture, got %T", c.Children[3])
	}
}

func TestParseItemExprVariants(t *testing.T) {
	cases := []struct {
		in         string
		item       string
		wildcard   bool
		exact      bool
		generalize bool
		forceGen   bool
	}{
		{"w", "w", false, false, false, false},
		{"w=", "w", false, true, false, false},
		{"w^", "w", false, false, true, false},
		{"w^=", "w", false, false, true, true},
		{".", "", true, false, false, false},
		{".^", "", true, false, true, false},
		{"ENTITY", "ENTITY", false, false, false, false},
		{"'MP3 Players'", "MP3 Players", false, false, false, false},
		{"be^=", "be", false, false, true, true},
	}
	for _, c := range cases {
		n, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		it, ok := n.(*ItemExpr)
		if !ok {
			t.Errorf("Parse(%q) = %T, want *ItemExpr", c.in, n)
			continue
		}
		if it.Item != c.item || it.Wildcard != c.wildcard || it.Exact != c.exact ||
			it.Generalize != c.generalize || it.ForceGen != c.forceGen {
			t.Errorf("Parse(%q) = %+v", c.in, it)
		}
	}
}

func TestParseRepetition(t *testing.T) {
	cases := []struct {
		in        string
		min, max  int
		unbounded bool
	}{
		{"[.]*", 0, 0, true},
		{"[.]+", 1, 0, true},
		{"[.]?", 0, 1, false},
		{"[.]{3}", 3, 3, false},
		{"[.]{2,}", 2, 0, true},
		{"[.]{1,4}", 1, 4, false},
		{"[.]{,4}", 0, 4, false},
		{".{0,2}", 0, 2, false},
		{"(.^){3}", 3, 3, false},
	}
	for _, c := range cases {
		n, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		r, ok := n.(*Repeat)
		if !ok {
			t.Errorf("Parse(%q) = %T, want *Repeat", c.in, n)
			continue
		}
		if r.Min != c.min || r.Unbounded != c.unbounded || (!c.unbounded && r.Max != c.max) {
			t.Errorf("Parse(%q) = {Min:%d Max:%d Unbounded:%v}, want {%d %d %v}",
				c.in, r.Min, r.Max, r.Unbounded, c.min, c.max, c.unbounded)
		}
	}
}

func TestParseStackedPostfix(t *testing.T) {
	// NOUN+? from constraint N1: (NOUN+)? i.e. an optional repetition.
	n, err := Parse("NOUN+?")
	if err != nil {
		t.Fatal(err)
	}
	outer, ok := n.(*Repeat)
	if !ok || outer.Min != 0 || outer.Max != 1 || outer.Unbounded {
		t.Fatalf("outer should be '?', got %v", n)
	}
	inner, ok := outer.Child.(*Repeat)
	if !ok || inner.Min != 1 || !inner.Unbounded {
		t.Fatalf("inner should be '+', got %v", outer.Child)
	}
}

func TestParseAlternation(t *testing.T) {
	n, err := Parse("[[.^. .]|[. .^.]|[. . .^]]")
	if err != nil {
		t.Fatal(err)
	}
	u, ok := n.(*Union)
	if !ok {
		t.Fatalf("expected Union, got %T", n)
	}
	if len(u.Children) != 3 {
		t.Fatalf("expected 3 branches, got %d", len(u.Children))
	}
	for i, b := range u.Children {
		c, ok := b.(*Concat)
		if !ok || len(c.Children) != 3 {
			t.Errorf("branch %d should be a 3-item concat, got %v", i, b)
		}
	}
}

// TestParsePaperConstraints parses every constraint of Table III.
func TestParsePaperConstraints(t *testing.T) {
	patterns := []string{
		"ENTITY (VERB+ NOUN+? PREP?) ENTITY",      // N1
		"(ENTITY^ VERB+ NOUN+? PREP? ENTITY^)",    // N2
		"(ENTITY^ be^=) DET? (ADV? ADJ? NOUN)",    // N3
		"(.^){3} NOUN",                            // N4
		"[[.^. .]|[. .^.]|[. . .^]]",              // N5
		"(Electr^)[.{0,2}(Electr^)]{1,4}",         // A1
		"(Book)[.{0,2}(Book)]{1,4}",               // A2
		"DigitalCamera[.{0,3}(.^)]{1,4}",          // A3
		"(MusicInstr^)[.{0,2}(MusicInstr^)]{1,4}", // A4
		"(.)[.*(.)]{,4}",                          // T1, lambda=5
		"(.)[.{0,1}(.)]{1,4}",                     // T2, gamma=1, lambda=5
		"(.^)[.{0,1}(.^)]{1,4}",                   // T3, gamma=1, lambda=5
	}
	for _, pat := range patterns {
		if _, err := Parse(pat); err != nil {
			t.Errorf("Parse(%q): %v", pat, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"(",
		"(A",
		"[A",
		"A)",
		"A]",
		"|A",
		".=",
		".^=",
		"[A]{3,1}",
		"[A]{}",
		"[A]{x}",
		"'unterminated",
		"[]",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	patterns := []string{
		".*(A)[(.^).*]*(b).*",
		"ENTITY (VERB+ NOUN+? PREP?) ENTITY",
		"(Electr^)[.{0,2}(Electr^)]{1,4}",
		"(.^)[.{0,1}(.^)]{1,4}",
		"'A Storm of Swords' (Book)",
	}
	for _, pat := range patterns {
		n1, err := Parse(pat)
		if err != nil {
			t.Fatalf("Parse(%q): %v", pat, err)
		}
		n2, err := Parse(n1.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", n1.String(), err)
		}
		if n1.String() != n2.String() {
			t.Errorf("String round trip mismatch: %q vs %q", n1.String(), n2.String())
		}
	}
}

func TestItems(t *testing.T) {
	n := MustParse("ENTITY (VERB+ NOUN+? PREP?) ENTITY")
	got := Items(n)
	want := []string{"ENTITY", "VERB", "NOUN", "PREP"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("Items = %v, want %v", got, want)
	}
}

func TestParseWhitespaceInsensitive(t *testing.T) {
	a := MustParse("(A)[(.^).*]*(b)")
	b := MustParse(" ( A ) [ ( .^ ) .* ] * ( b ) ")
	if a.String() != b.String() {
		t.Errorf("whitespace should not matter: %q vs %q", a.String(), b.String())
	}
}
