package experiments

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"

	"seqmine/internal/baseline/lash"
	"seqmine/internal/baseline/prefixspan"
	"seqmine/internal/dcand"
	"seqmine/internal/dict"
	"seqmine/internal/dseq"
	"seqmine/internal/fst"
	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
	"seqmine/internal/naive"
	"seqmine/internal/seqdb"
)

// ---------------------------------------------------------------------------
// The run table
// ---------------------------------------------------------------------------

// query is what a mining run answers: the frequent sequences of one database
// under one pattern expression at one minimum support.
type query struct {
	db    *seqdb.Database
	expr  string
	sigma int64
}

// runKey identifies a run in a suite's table: an algorithm answering a query
// on a number of workers.
type runKey struct {
	algo    string
	q       query
	workers int
}

// run is one mining run: the patterns, the engine's metrics and the wall time
// of the miner call.
type run struct {
	patterns []miner.Pattern
	metrics  mapreduce.Metrics
	elapsed  time.Duration
}

// algo is a named miner configuration: one of the compared algorithms or an
// ablation variant of one. The name identifies the configuration in the run
// table, so algos of one name must mine alike on every query they are given.
type algo struct {
	name string
	mine func(f *fst.FST, db *seqdb.Database, sigma int64, cfg mapreduce.Config) ([]miner.Pattern, mapreduce.Metrics, error)
}

func dseqAlgo(name string, opts dseq.Options) algo {
	return algo{name, func(f *fst.FST, db *seqdb.Database, sigma int64, cfg mapreduce.Config) ([]miner.Pattern, mapreduce.Metrics, error) {
		return dseq.Mine(f, db.Sequences, sigma, opts, cfg, nil)
	}}
}

func dcandAlgo(name string, opts dcand.Options) algo {
	return algo{name, func(f *fst.FST, db *seqdb.Database, sigma int64, cfg mapreduce.Config) ([]miner.Pattern, mapreduce.Metrics, error) {
		return dcand.Mine(f, db.Sequences, sigma, opts, cfg, nil)
	}}
}

func naiveAlgo(name string, variant naive.Variant) algo {
	return algo{name, func(f *fst.FST, db *seqdb.Database, sigma int64, cfg mapreduce.Config) ([]miner.Pattern, mapreduce.Metrics, error) {
		return naive.Mine(f, db.Sequences, sigma, variant, cfg)
	}}
}

// lashAlgo runs the LASH-setting miner under c, which must state the query's
// pattern expression.
func lashAlgo(c lash.Constraint) algo {
	return algo{"LASH", func(_ *fst.FST, db *seqdb.Database, sigma int64, cfg mapreduce.Config) ([]miner.Pattern, mapreduce.Metrics, error) {
		return lash.Mine(db.Dict, db.Sequences, sigma, c, cfg)
	}}
}

// prefixSpanAlgo runs PrefixSpan up to maxLength items, which must state the
// query's pattern expression (T1).
func prefixSpanAlgo(maxLength int) algo {
	return algo{"PrefixSpan", func(_ *fst.FST, db *seqdb.Database, sigma int64, cfg mapreduce.Config) ([]miner.Pattern, mapreduce.Metrics, error) {
		opts := prefixspan.Options{MaxLength: maxLength, Workers: cfg.Workers}
		return prefixspan.Mine(db.Dict, db.Sequences, sigma, opts), mapreduce.Metrics{}, nil
	}}
}

var (
	naiveRun     = naiveAlgo("Naive", naive.Naive)
	semiNaiveRun = naiveAlgo("SemiNaive", naive.SemiNaive)
	dseqRun      = dseqAlgo("D-SEQ", dseq.DefaultOptions())
	dcandRun     = dcandAlgo("D-CAND", dcand.DefaultOptions())
	// desqDFSRun is sequential DESQ-DFS: it ignores the worker count.
	desqDFSRun = algo{"DESQ-DFS", func(f *fst.FST, db *seqdb.Database, sigma int64, _ mapreduce.Config) ([]miner.Pattern, mapreduce.Metrics, error) {
		return miner.MineDFS(f, miner.Weighted(db.Sequences), sigma, miner.DFSOptions{}), mapreduce.Metrics{}, nil
	}}
)

// Suite runs the paper's tables and figures over one set of datasets. It
// keeps a run table: each run — an algorithm answering a query on a number of
// workers — is mined at most once per suite, and every figure that shows the
// run reads it from the table. Every run of a query must return the exact
// pattern set, items and supports, of the query's first run; a figure that
// would show a disagreeing run returns an error instead.
//
// A Suite is not safe for concurrent use. A new Suite mines afresh, so
// benchmarks create one per iteration.
type Suite struct {
	ds      *Datasets
	fsts    map[fstKey]*fst.FST
	samples map[float64]*seqdb.Database
	table   map[runKey]*run
	first   map[query]runKey
	mined   int
}

type fstKey struct {
	d    *dict.Dictionary
	expr string
}

// NewSuite returns a suite with an empty run table over ds.
func NewSuite(ds *Datasets) *Suite {
	return &Suite{
		ds:      ds,
		fsts:    map[fstKey]*fst.FST{},
		samples: map[float64]*seqdb.Database{},
		table:   map[runKey]*run{},
		first:   map[query]runKey{},
	}
}

func (s *Suite) query(c Constraint) query {
	return query{db: c.DB(s.ds), expr: c.Expression, sigma: c.Sigma}
}

// run returns algorithm a's run of q on workers workers, mining it on the
// first request.
func (s *Suite) run(a algo, q query, workers int) (*run, error) {
	key := runKey{a.name, q, workers}
	if r, ok := s.table[key]; ok {
		return r, nil
	}
	fk := fstKey{q.db.Dict, q.expr}
	f, ok := s.fsts[fk]
	if !ok {
		var err error
		if f, err = fst.Compile(q.expr, q.db.Dict); err != nil {
			return nil, err
		}
		s.fsts[fk] = f
	}
	start := time.Now()
	patterns, metrics, err := a.mine(f, q.db, q.sigma, mapreduce.Config{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.name, err)
	}
	r := &run{patterns: patterns, metrics: metrics, elapsed: time.Since(start)}
	s.mined++
	if fk, ok := s.first[q]; !ok {
		s.first[q] = key
	} else if diff := differ(s.table[fk].patterns, patterns); diff != "" {
		return nil, fmt.Errorf("%s and %s disagree: %s", fk.algo, a.name, diff)
	}
	s.table[key] = r
	return r, nil
}

// mine returns the runs of c by each algorithm on the suite's worker count.
func (s *Suite) mine(c Constraint, algos ...algo) ([]*run, error) {
	out := make([]*run, len(algos))
	for i, a := range algos {
		r, err := s.run(a, s.query(c), s.ds.Scale.Workers)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		out[i] = r
	}
	return out, nil
}

// differ describes how pattern set b differs from a, or returns "" when both
// hold the same sequences with the same supports.
func differ(a, b []miner.Pattern) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d frequent sequences", len(a), len(b))
	}
	a, b = slices.Clone(a), slices.Clone(b)
	miner.SortPatterns(a)
	miner.SortPatterns(b)
	for i := range a {
		if a[i].Freq != b[i].Freq || !slices.Equal(a[i].Items, b[i].Items) {
			return fmt.Sprintf("%v (%d) vs %v (%d)", a[i].Items, a[i].Freq, b[i].Items, b[i].Freq)
		}
	}
	return ""
}

// ---------------------------------------------------------------------------
// Table II: dataset characteristics
// ---------------------------------------------------------------------------

// TableII reports the dataset and hierarchy characteristics of the synthetic
// datasets (paper Table II).
func TableII(s *Suite) (Table, error) {
	t := Table{
		Title:  "Table II: dataset and hierarchy characteristics (synthetic, scaled down)",
		Header: []string{"", "NYT-like", "AMZN-like", "AMZN-F-like", "CW-like"},
	}
	ds := s.ds
	stats := []seqdb.Stats{ds.NYT.Stats(), ds.AMZN.Stats(), ds.AMZNF.Stats(), ds.CW.Stats()}
	row := func(label string, f func(seqdb.Stats) string) {
		cells := []string{label}
		for _, s := range stats {
			cells = append(cells, f(s))
		}
		t.Add(cells...)
	}
	row("Total sequences", func(s seqdb.Stats) string { return fmt.Sprint(s.NumSequences) })
	row("Total items", func(s seqdb.Stats) string { return fmt.Sprint(s.TotalItems) })
	row("Unique items", func(s seqdb.Stats) string { return fmt.Sprint(s.UniqueItems) })
	row("Max. sequence length", func(s seqdb.Stats) string { return fmt.Sprint(s.MaxLength) })
	row("Mean sequence length", func(s seqdb.Stats) string { return fmt.Sprintf("%.1f", s.MeanLength) })
	row("Hierarchy items", func(s seqdb.Stats) string { return fmt.Sprint(s.HierarchyItems) })
	row("Max. ancestors", func(s seqdb.Stats) string { return fmt.Sprint(s.MaxAncestors) })
	row("Mean ancestors", func(s seqdb.Stats) string { return fmt.Sprintf("%.1f", s.MeanAncestors) })
	return t, nil
}

// allConstraints returns N1–N5, A1–A4 and the T constraints, in Table III's
// order.
func allConstraints(s Scale) []Constraint {
	return slices.Concat(NYTConstraints(s), AmazonConstraints(s), TraditionalConstraints(s))
}

// ---------------------------------------------------------------------------
// Table III: example constraints and found frequent sequences
// ---------------------------------------------------------------------------

// TableIII mines every N/A/T constraint with D-SEQ and reports the number of
// frequent sequences plus a few examples (paper Table III).
func TableIII(s *Suite) (Table, error) {
	t := Table{
		Title:  "Table III: example subsequence constraints with found frequent sequences",
		Header: []string{"Constraint", "Dataset", "Pattern expression", "#Frequent", "Example frequent sequences (support)"},
	}
	for _, c := range allConstraints(s.ds.Scale) {
		rs, err := s.mine(c, dseqRun)
		if err != nil {
			return t, err
		}
		t.Add(c.Name, c.Dataset, c.Expression, fmt.Sprint(len(rs[0].patterns)), examplePatterns(c.DB(s.ds).Dict, rs[0].patterns, 3))
	}
	return t, nil
}

func examplePatterns(d *dict.Dictionary, ps []miner.Pattern, n int) string {
	parts := make([]string, 0, n)
	for _, p := range ps[:min(n, len(ps))] {
		parts = append(parts, fmt.Sprintf("'%s' (%d)", d.DecodeString(p.Items), p.Freq))
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, ", ")
}

// ---------------------------------------------------------------------------
// Table IV: candidate subsequences per input sequence (CSPI)
// ---------------------------------------------------------------------------

// TableIV reports the candidate statistics of each constraint (paper Table
// IV): fraction of matched sequences, total number of candidates and
// mean/median candidates per matched sequence. Values are computed on a
// sample of the input sequences with a per-sequence enumeration cap.
func TableIV(s *Suite) (Table, error) {
	t := Table{
		Title:  "Table IV: statistics on candidate subsequences (Gσπ, sampled)",
		Header: []string{"Constraint", "Dataset", "matched seqs (%)", "#cand. seqs", "CSPI mean", "CSPI median"},
	}
	const sampleSize = 400
	const perSeqCap = 20000
	for _, c := range allConstraints(s.ds.Scale) {
		db := c.DB(s.ds)
		f, err := c.Compile(s.ds)
		if err != nil {
			return t, fmt.Errorf("%s: %w", c.Name, err)
		}
		step := 1
		if len(db.Sequences) > sampleSize {
			step = len(db.Sequences) / sampleSize
		}
		var counts []int
		matched := 0
		sampled := 0
		truncatedAny := false
		for i := 0; i < len(db.Sequences); i += step {
			sampled++
			n := 0
			f.ForEachDistinctCandidate(db.Sequences[i], c.Sigma, func([]dict.ItemID) bool {
				n++
				return n < perSeqCap
			})
			truncatedAny = truncatedAny || n == perSeqCap
			if n > 0 {
				matched++
				counts = append(counts, n)
			}
		}
		total := 0
		for _, n := range counts {
			total += n
		}
		mean, median := 0.0, 0
		if len(counts) > 0 {
			mean = float64(total) / float64(len(counts))
			sort.Ints(counts)
			median = counts[len(counts)/2]
		}
		scaledTotal := float64(total) * float64(len(db.Sequences)) / float64(sampled)
		t.Add(c.Name, c.Dataset,
			fmt.Sprintf("%.1f", 100*float64(matched)/float64(sampled)),
			fmt.Sprintf("%.0f", scaledTotal),
			fmt.Sprintf("%.1f", mean),
			fmt.Sprint(median))
		if truncatedAny {
			t.Note("%s: per-sequence candidate counts capped at %d (estimate, like the sampled row of the paper)", c.Name, perSeqCap)
		}
	}
	t.Note("computed on every %d-th sequence", 1)
	return t, nil
}

// ---------------------------------------------------------------------------
// Fig. 9: flexible constraints (runtimes and shuffle sizes)
// ---------------------------------------------------------------------------

// fig9Algos are the algorithms Fig. 9 compares, in column order.
var fig9Algos = []algo{naiveRun, semiNaiveRun, dseqRun, dcandRun}

// Fig9a compares Naive, SemiNaive, D-SEQ and D-CAND on the NYT constraints
// (paper Fig. 9a).
func Fig9a(s *Suite) (Table, error) {
	return figure9(s, "Fig. 9a: total time on NYT-like (flexible constraints)", NYTConstraints(s.ds.Scale))
}

// Fig9b compares the algorithms on the AMZN constraints (paper Fig. 9b).
func Fig9b(s *Suite) (Table, error) {
	return figure9(s, "Fig. 9b: total time on AMZN-like (flexible constraints)", AmazonConstraints(s.ds.Scale))
}

func figure9(s *Suite, title string, constraints []Constraint) (Table, error) {
	t := Table{Title: title, Header: []string{"Constraint", "Naive", "SemiNaive", "D-SEQ", "D-CAND", "#Frequent"}}
	for _, c := range constraints {
		rs, err := s.mine(c, fig9Algos...)
		if err != nil {
			return t, err
		}
		row := []string{c.Name}
		for _, r := range rs {
			row = append(row, formatDuration(r.elapsed))
		}
		t.Add(append(row, fmt.Sprint(len(rs[0].patterns)))...)
	}
	return t, nil
}

// Fig9c reports the shuffle sizes of the four algorithms for A1 and A4
// (paper Fig. 9c).
func Fig9c(s *Suite) (Table, error) {
	t := Table{Title: "Fig. 9c: shuffle size on AMZN-like", Header: []string{"Constraint", "Naive", "SemiNaive", "D-SEQ", "D-CAND"}}
	amazon := AmazonConstraints(s.ds.Scale)
	for _, c := range []Constraint{amazon[0], amazon[3]} { // A1 and A4
		rs, err := s.mine(c, fig9Algos...)
		if err != nil {
			return t, err
		}
		row := []string{c.Name}
		for _, r := range rs {
			row = append(row, formatBytes(r.metrics.ShuffleBytes))
		}
		t.Add(row...)
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Fig. 10: detailed analysis (ablations)
// ---------------------------------------------------------------------------

// Fig10a measures the effect of sequence rewriting and early stopping in
// D-SEQ (paper Fig. 10a). The "no stop" columns ablate the per-cell rule: a
// prefix without the pivot is grown from, and counts towards its children's
// supports, every productive cell rather than only those that can still
// output the pivot. The horizontal line of the paper's bars (start of the
// mine stage) corresponds to the map-time column. The paper's "no grid"
// column is not a D-SEQ run here: the pivot search always runs the grid, and
// the run-enumeration search it is compared with is a test reference,
// measured by internal/pivot's BenchmarkPivotAnalyze_T3.
func Fig10a(s *Suite) (Table, error) {
	t := Table{Title: "Fig. 10a: D-SEQ detailed analysis (total time / map time)",
		Header: []string{"Constraint", "no stop, no rewrites", "no stop", "D-SEQ (all)"}}
	algos := []algo{
		dseqAlgo("D-SEQ (no stop, no rewrites)", dseq.Options{}),
		dseqAlgo("D-SEQ (no stop)", dseq.Options{Rewrite: true}),
		dseqRun,
	}
	amazon, nyt := AmazonConstraints(s.ds.Scale), NYTConstraints(s.ds.Scale)
	for _, c := range []Constraint{amazon[0], nyt[4], TraditionalConstraints(s.ds.Scale)[0]} { // A1, N5, T3
		rs, err := s.mine(c, algos...)
		if err != nil {
			return t, err
		}
		row := []string{c.Name}
		for _, r := range rs {
			row = append(row, fmt.Sprintf("%s / %s", formatDuration(r.elapsed), formatDuration(r.metrics.MapTime)))
		}
		t.Add(row...)
	}
	return t, nil
}

// Fig10b measures the effect of NFA minimization and aggregation in D-CAND
// (paper Fig. 10b).
func Fig10b(s *Suite) (Table, error) {
	t := Table{Title: "Fig. 10b: D-CAND detailed analysis (total time / shuffle size)",
		Header: []string{"Constraint", "tries, no agg", "tries", "D-CAND (all)"}}
	algos := []algo{
		dcandAlgo("D-CAND (tries, no agg)", dcand.Options{}),
		dcandAlgo("D-CAND (tries)", dcand.Options{Aggregate: true}),
		dcandRun,
	}
	amazon, nyt := AmazonConstraints(s.ds.Scale), NYTConstraints(s.ds.Scale)
	for _, c := range []Constraint{amazon[0], nyt[3], TraditionalConstraints(s.ds.Scale)[0]} { // A1, N4, T3
		rs, err := s.mine(c, algos...)
		if err != nil {
			return t, err
		}
		row := []string{c.Name}
		for _, r := range rs {
			row = append(row, fmt.Sprintf("%s / %s", formatDuration(r.elapsed), formatBytes(r.metrics.ShuffleBytes)))
		}
		t.Add(row...)
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Fig. 11: scalability
// ---------------------------------------------------------------------------

// scalability mines T3 on AMZN-F-like, as in the paper, with D-SEQ and D-CAND
// on workers workers over the fraction frac of the sequences, at a minimum
// support proportional to frac. It returns that support and the two times.
func (s *Suite) scalability(frac float64, workers int) (int64, []string, error) {
	base := TraditionalConstraints(s.ds.Scale)[0]
	sample, ok := s.samples[frac]
	if !ok {
		sample = base.DB(s.ds).Sample(frac, 42)
		s.samples[frac] = sample
	}
	q := query{db: sample, expr: base.Expression, sigma: max(int64(float64(base.Sigma)*frac), 2)}
	var times []string
	for _, a := range []algo{dseqRun, dcandRun} {
		r, err := s.run(a, q, workers)
		if err != nil {
			return 0, nil, fmt.Errorf("%s: %w", base.Name, err)
		}
		times = append(times, formatDuration(r.elapsed))
	}
	return q.sigma, times, nil
}

// Fig11a reports data scalability: 25/50/75/100% of the sequences with
// proportional sigma and a fixed number of workers (paper Fig. 11a).
func Fig11a(s *Suite) (Table, error) {
	t := Table{
		Title:  "Fig. 11a: data scalability, " + TraditionalConstraints(s.ds.Scale)[0].Name + " on AMZN-F-like (" + fmt.Sprint(s.ds.Scale.Workers) + " workers)",
		Header: []string{"% of data", "sigma", "D-SEQ", "D-CAND"},
	}
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		sigma, times, err := s.scalability(frac, s.ds.Scale.Workers)
		if err != nil {
			return t, err
		}
		t.Add(append([]string{fmt.Sprintf("%.0f%%", frac*100), fmt.Sprint(sigma)}, times...)...)
	}
	return t, nil
}

// Fig11b reports strong scalability: the full dataset with 2, 4 and 8 workers
// (paper Fig. 11b).
func Fig11b(s *Suite) (Table, error) {
	t := Table{
		Title:  "Fig. 11b: strong scalability, " + TraditionalConstraints(s.ds.Scale)[0].Name + " on AMZN-F-like (100% of data)",
		Header: []string{"Workers", "D-SEQ", "D-CAND"},
	}
	for _, workers := range []int{2, 4, 8} {
		_, times, err := s.scalability(1, workers)
		if err != nil {
			return t, err
		}
		t.Add(append([]string{fmt.Sprint(workers)}, times...)...)
	}
	return t, nil
}

// Fig11c reports weak scalability: the data grows proportionally with the
// number of workers (paper Fig. 11c).
func Fig11c(s *Suite) (Table, error) {
	t := Table{
		Title:  "Fig. 11c: weak scalability, " + TraditionalConstraints(s.ds.Scale)[0].Name + " on AMZN-F-like",
		Header: []string{"Workers (% of data)", "sigma", "D-SEQ", "D-CAND"},
	}
	weak := []struct {
		workers int
		frac    float64
	}{{2, 0.25}, {4, 0.5}, {6, 0.75}, {8, 1.0}}
	for _, w := range weak {
		sigma, times, err := s.scalability(w.frac, w.workers)
		if err != nil {
			return t, err
		}
		t.Add(append([]string{fmt.Sprintf("%d (%.0f%%)", w.workers, w.frac*100), fmt.Sprint(sigma)}, times...)...)
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Table V: speed-up over sequential execution
// ---------------------------------------------------------------------------

// TableV compares sequential DESQ-DFS with distributed D-SEQ and D-CAND
// (paper Table V).
func TableV(s *Suite) (Table, error) {
	t := Table{
		Title:  "Table V: speed-up over sequential execution (DESQ-DFS on 1 worker)",
		Header: []string{"Constraint", "Dataset", "DESQ-DFS", "D-SEQ", "D-CAND"},
	}
	nyt := NYTConstraints(s.ds.Scale)
	trad := TraditionalConstraints(s.ds.Scale)
	for _, c := range []Constraint{nyt[3], nyt[4], trad[0], trad[1], trad[2]} { // N4, N5, T3 low/high, T2
		rs, err := s.mine(c, desqDFSRun, dseqRun, dcandRun)
		if err != nil {
			return t, err
		}
		d0 := rs[0].elapsed
		speedup := func(d time.Duration) string {
			if d == 0 {
				return "-"
			}
			return fmt.Sprintf("%s (%.1fx)", formatDuration(d), float64(d0)/float64(d))
		}
		t.Add(c.Name, c.Dataset, formatDuration(d0), speedup(rs[1].elapsed), speedup(rs[2].elapsed))
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Fig. 12: LASH setting
// ---------------------------------------------------------------------------

// Fig12 compares the specialized LASH-setting miner with D-SEQ and D-CAND on
// max-gap/max-length/hierarchy constraints (paper Fig. 12a/b). The last
// column reports the generalization overhead of D-SEQ over the specialized
// algorithm.
func Fig12(s *Suite) (Table, error) {
	t := Table{
		Title:  "Fig. 12: LASH setting (generalization overhead of the flexible miners)",
		Header: []string{"Constraint", "Dataset", "LASH", "D-SEQ", "D-CAND", "D-SEQ/LASH"},
	}
	fa := float64(s.ds.Scale.AmazonCustomers) / 6000.0
	fc := float64(s.ds.Scale.ClueWebSentences) / 10000.0
	cases := []struct {
		name      string
		dataset   string
		gamma     int
		lambda    int
		hierarchy bool
		sigma     int64
	}{
		{"T3(γ=1,λ=5)", "AMZN-F", 1, 5, true, scaledSigma(25, fa)},
		{"T3(γ=1,λ=5) low σ", "AMZN-F", 1, 5, true, scaledSigma(10, fa)},
		{"T3(γ=2,λ=5)", "AMZN-F", 2, 5, true, scaledSigma(25, fa)},
		{"T3(γ=1,λ=6)", "AMZN-F", 1, 6, true, scaledSigma(25, fa)},
		{"T2(γ=0,λ=5)", "CW", 0, 5, false, scaledSigma(20, fc)},
		{"T2(γ=0,λ=5) low σ", "CW", 0, 5, false, scaledSigma(10, fc)},
	}
	for _, k := range cases {
		c := Constraint{Name: fmt.Sprintf("%s σ=%d", k.name, k.sigma), Expression: T2Expr(k.gamma, k.lambda), Sigma: k.sigma, Dataset: k.dataset}
		if k.hierarchy {
			c.Expression = T3Expr(k.gamma, k.lambda)
		}
		lashC := lash.Constraint{MaxGap: k.gamma, MaxLength: k.lambda, MinLength: 2, Hierarchy: k.hierarchy}
		rs, err := s.mine(c, lashAlgo(lashC), dseqRun, dcandRun)
		if err != nil {
			return t, err
		}
		overhead := "-"
		if rs[0].elapsed > 0 {
			overhead = fmt.Sprintf("%.1fx", float64(rs[1].elapsed)/float64(rs[0].elapsed))
		}
		t.Add(c.Name, c.Dataset, formatDuration(rs[0].elapsed), formatDuration(rs[1].elapsed), formatDuration(rs[2].elapsed), overhead)
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Fig. 13: MLlib setting
// ---------------------------------------------------------------------------

// Fig13 compares PrefixSpan (the MLlib setting: maximum length, arbitrary
// gaps, no hierarchy) with the LASH-setting miner, D-SEQ and D-CAND over a
// sweep of minimum supports (paper Fig. 13). D-CAND is skipped: with
// arbitrary gaps the number of accepting runs explodes, which is the
// out-of-memory condition reported in the paper.
func Fig13(s *Suite) (Table, error) {
	t := Table{
		Title:  "Fig. 13: MLlib setting, T1(σ,5) on AMZN-like without hierarchy",
		Header: []string{"sigma", "MLlib (PrefixSpan)", "LASH", "D-SEQ", "D-CAND", "#Frequent"},
	}
	const lambda = 5
	algos := []algo{
		prefixSpanAlgo(lambda),
		lashAlgo(lash.Constraint{MaxGap: 1 << 20, MaxLength: lambda, MinLength: 1, Hierarchy: false}),
		dseqRun,
	}
	// Minimum supports as fractions of the number of customers (the paper
	// sweeps 6400 down to 25 on 21M sequences; the lowest settings are
	// intentionally omitted — they lead to pattern explosion for every
	// algorithm, which is the ">24h" region of the paper's figure).
	for _, frac := range []float64{0.10, 0.067, 0.05, 0.033} {
		sigma := max(int64(frac*float64(s.ds.Scale.AmazonCustomers)), 3)
		c := Constraint{Name: fmt.Sprint(sigma), Expression: T1Expr(lambda), Sigma: sigma, Dataset: "AMZN"}
		rs, err := s.mine(c, algos...)
		if err != nil {
			return t, err
		}
		t.Add(c.Name, formatDuration(rs[0].elapsed), formatDuration(rs[1].elapsed), formatDuration(rs[2].elapsed),
			"n/a (run explosion)", fmt.Sprint(len(rs[0].patterns)))
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// RunAll
// ---------------------------------------------------------------------------

// figures lists every table and figure of the suite in the paper's order.
var figures = []func(*Suite) (Table, error){
	TableII, TableIII, TableIV, Fig9a, Fig9b, Fig9c, Fig10a, Fig10b,
	Fig11a, Fig11b, Fig11c, TableV, Fig12, Fig13,
}

// RunAll executes the full experiment suite at the given scale and writes the
// tables to w (markdown when markdown is true, aligned text otherwise).
func RunAll(sc Scale, w io.Writer, markdown bool) error {
	start := time.Now()
	ds, err := Generate(sc)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Experiment suite at scale %+v (dataset generation: %s)\n\n", sc, formatDuration(time.Since(start)))
	s := NewSuite(ds)
	for _, figure := range figures {
		t, err := figure(s)
		if err != nil {
			return err
		}
		if markdown {
			fmt.Fprintln(w, t.Markdown())
		} else {
			fmt.Fprintln(w, t.String())
		}
	}
	fmt.Fprintf(w, "Total experiment time: %s\n", formatDuration(time.Since(start)))
	return nil
}
