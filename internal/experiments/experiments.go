// Package experiments contains the harness that regenerates every table and
// figure of the paper's evaluation (Sec. VII) on the synthetic datasets of
// the datagen package. Each experiment returns a Table whose rows mirror the
// series reported in the paper; cmd/experiments and the benchmarks in
// bench_test.go are thin wrappers around these functions. The experiments
// read their mining runs from a Suite's run table, which mines each run once
// and checks that every algorithm answers a query with the same patterns.
//
// Absolute numbers differ from the paper (single machine, scaled-down
// synthetic data); the harness targets the qualitative shape: which
// algorithm wins, by roughly what factor, and where the crossovers are.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"seqmine/internal/datagen"
	"seqmine/internal/fst"
	"seqmine/internal/seqdb"
)

// Scale controls dataset sizes and parallelism of the experiment suite.
type Scale struct {
	NYTSentences     int
	AmazonCustomers  int
	ClueWebSentences int
	Workers          int
	// Seed drives dataset generation.
	Seed int64
}

// DefaultScale is the scale used by cmd/experiments and the benchmarks: large
// enough that algorithmic differences are visible, small enough to run on a
// laptop in minutes.
func DefaultScale() Scale {
	return Scale{NYTSentences: 6000, AmazonCustomers: 4000, ClueWebSentences: 6000, Workers: 8, Seed: 1}
}

// SmallScale is used by the test suite.
func SmallScale() Scale {
	return Scale{NYTSentences: 1200, AmazonCustomers: 800, ClueWebSentences: 1200, Workers: 4, Seed: 1}
}

// Datasets bundles the generated databases.
type Datasets struct {
	Scale Scale
	NYT   *seqdb.Database
	AMZN  *seqdb.Database
	AMZNF *seqdb.Database
	CW    *seqdb.Database
}

// Generate builds all four datasets deterministically.
func Generate(s Scale) (*Datasets, error) {
	nyt, err := datagen.NYT(datagen.NYTConfig{NumSentences: s.NYTSentences, Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	amzn, err := datagen.Amazon(datagen.AmazonConfig{NumCustomers: s.AmazonCustomers, Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	amznf, err := datagen.Amazon(datagen.AmazonConfig{NumCustomers: s.AmazonCustomers, Seed: s.Seed, Forest: true})
	if err != nil {
		return nil, err
	}
	cw, err := datagen.ClueWeb(datagen.ClueWebConfig{NumSentences: s.ClueWebSentences, Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	return &Datasets{Scale: s, NYT: nyt, AMZN: amzn, AMZNF: amznf, CW: cw}, nil
}

// Constraint is a named subsequence constraint of Table III, bound to one of
// the datasets and scaled to a minimum support that is meaningful on the
// synthetic data.
type Constraint struct {
	// Name follows the paper's notation, e.g. "N1(5)" or "T3(25,1,5)".
	Name string
	// Expression is the pattern expression (with explicit gap context; see
	// DESIGN.md).
	Expression string
	// Sigma is the minimum support used on the synthetic dataset.
	Sigma int64
	// Dataset is one of "NYT", "AMZN", "AMZN-F", "CW".
	Dataset string
}

// DB returns the dataset the constraint is evaluated on.
func (c Constraint) DB(ds *Datasets) *seqdb.Database {
	switch c.Dataset {
	case "NYT":
		return ds.NYT
	case "AMZN":
		return ds.AMZN
	case "AMZN-F":
		return ds.AMZNF
	case "CW":
		return ds.CW
	default:
		panic("experiments: unknown dataset " + c.Dataset)
	}
}

// Compile compiles the constraint against its dataset.
func (c Constraint) Compile(ds *Datasets) (*fst.FST, error) {
	return fst.Compile(c.Expression, c.DB(ds).Dict)
}

// Pattern-expression builders for the traditional constraints. The explicit
// leading/trailing ".*" states the gap context that the paper's FSTs admit
// implicitly (see DESIGN.md).

// T1Expr is the PrefixSpan/MLlib constraint: subsequences up to length lambda
// with arbitrary gaps and no hierarchy.
func T1Expr(lambda int) string {
	return fmt.Sprintf("[.*(.)]{1,%d}.*", lambda)
}

// T2Expr is the MG-FSM constraint: maximum gap gamma, maximum length lambda.
func T2Expr(gamma, lambda int) string {
	return fmt.Sprintf(".*(.)[.{0,%d}(.)]{1,%d}.*", gamma, lambda-1)
}

// T3Expr is the LASH constraint: T2 plus hierarchy generalization.
func T3Expr(gamma, lambda int) string {
	return fmt.Sprintf(".*(.^)[.{0,%d}(.^)]{1,%d}.*", gamma, lambda-1)
}

// Text-mining and recommendation constraints of Table III.
const (
	N1Expr = ".*ENTITY (VERB+ NOUN+? PREP?) ENTITY.*"
	N2Expr = ".*(ENTITY^ VERB+ NOUN+? PREP? ENTITY^).*"
	N3Expr = ".*(ENTITY^ be^=) DET? (ADV? ADJ? NOUN).*"
	N4Expr = ".*(.^){3} NOUN.*"
	N5Expr = ".*([.^. .]|[. .^.]|[. . .^]).*"
	A1Expr = ".*(Electr^)[.{0,2}(Electr^)]{1,4}.*"
	A2Expr = ".*(Book)[.{0,2}(Book)]{1,4}.*"
	A3Expr = ".*DigitalCamera[.{0,3}(.^)]{1,4}.*"
	A4Expr = ".*(MusicInstr^)[.{0,2}(MusicInstr^)]{1,4}.*"
)

// NYTConstraints returns the scaled text-mining constraints N1–N5.
func NYTConstraints(s Scale) []Constraint {
	// Minimum supports are scaled to the synthetic corpus size (the paper
	// uses 10–1000 on 50M sentences).
	f := float64(s.NYTSentences) / 10000.0
	sig := func(base float64) int64 { return scaledSigma(base, f) }
	return []Constraint{
		{Name: fmt.Sprintf("N1(%d)", sig(5)), Expression: N1Expr, Sigma: sig(5), Dataset: "NYT"},
		{Name: fmt.Sprintf("N2(%d)", sig(10)), Expression: N2Expr, Sigma: sig(10), Dataset: "NYT"},
		{Name: fmt.Sprintf("N3(%d)", sig(5)), Expression: N3Expr, Sigma: sig(5), Dataset: "NYT"},
		{Name: fmt.Sprintf("N4(%d)", sig(50)), Expression: N4Expr, Sigma: sig(50), Dataset: "NYT"},
		{Name: fmt.Sprintf("N5(%d)", sig(50)), Expression: N5Expr, Sigma: sig(50), Dataset: "NYT"},
	}
}

// AmazonConstraints returns the scaled recommendation constraints A1–A4.
func AmazonConstraints(s Scale) []Constraint {
	f := float64(s.AmazonCustomers) / 6000.0
	sig := func(base float64) int64 { return scaledSigma(base, f) }
	return []Constraint{
		{Name: fmt.Sprintf("A1(%d)", sig(20)), Expression: A1Expr, Sigma: sig(20), Dataset: "AMZN"},
		{Name: fmt.Sprintf("A2(%d)", sig(5)), Expression: A2Expr, Sigma: sig(5), Dataset: "AMZN"},
		{Name: fmt.Sprintf("A3(%d)", sig(5)), Expression: A3Expr, Sigma: sig(5), Dataset: "AMZN"},
		{Name: fmt.Sprintf("A4(%d)", sig(5)), Expression: A4Expr, Sigma: sig(5), Dataset: "AMZN"},
	}
}

// TraditionalConstraints returns the scaled T1–T3 constraints used in the
// CSPI statistics and the LASH/MLlib settings.
func TraditionalConstraints(s Scale) []Constraint {
	fa := float64(s.AmazonCustomers) / 6000.0
	fc := float64(s.ClueWebSentences) / 10000.0
	sig := scaledSigma
	return []Constraint{
		{Name: fmt.Sprintf("T3(%d,1,5)", sig(25, fa)), Expression: T3Expr(1, 5), Sigma: sig(25, fa), Dataset: "AMZN-F"},
		{Name: fmt.Sprintf("T3(%d,1,5)", sig(100, fa)), Expression: T3Expr(1, 5), Sigma: sig(100, fa), Dataset: "AMZN-F"},
		{Name: fmt.Sprintf("T2(%d,0,5)", sig(20, fc)), Expression: T2Expr(0, 5), Sigma: sig(20, fc), Dataset: "CW"},
		{Name: fmt.Sprintf("T1(%d,5)", sig(100, fa)), Expression: T1Expr(5), Sigma: sig(100, fa), Dataset: "AMZN"},
	}
}

// scaledSigma scales a minimum support the paper states for its full-size
// data by the fraction f of that size, keeping at least 2.
func scaledSigma(base, f float64) int64 {
	return max(int64(base*f), 2)
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	b.WriteString("\n")
	return b.String()
}

// formatDuration renders a duration with millisecond precision.
func formatDuration(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

// formatBytes renders a byte count in a human-readable unit.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
