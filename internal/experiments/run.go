package experiments

import (
	"fmt"
	"io"
	"sort"
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

// runResult captures one algorithm execution.
type runResult struct {
	patterns []miner.Pattern
	metrics  mapreduce.Metrics
	elapsed  time.Duration
	skipped  string // non-empty when the run was skipped (paper: OOM)
}

func (r runResult) timeCell() string {
	if r.skipped != "" {
		return "n/a (" + r.skipped + ")"
	}
	return formatDuration(r.elapsed)
}

// algoSpec names an algorithm configuration for the comparison figures.
type algoSpec struct {
	name string
	run  func(f *fst.FST, db [][]dict.ItemID, sigma int64, cfg mapreduce.Config) ([]miner.Pattern, mapreduce.Metrics)
	// skipLoose marks algorithms that are skipped for loose constraints
	// (candidate explosion; the paper reports OOM for these cells).
	skipLoose bool
}

func standardAlgos() []algoSpec {
	return []algoSpec{
		{name: "Naive", skipLoose: true,
			run: func(f *fst.FST, db [][]dict.ItemID, sigma int64, cfg mapreduce.Config) ([]miner.Pattern, mapreduce.Metrics) {
				return must(naive.Mine(f, db, sigma, naive.Naive, cfg))
			}},
		{name: "SemiNaive", skipLoose: true,
			run: func(f *fst.FST, db [][]dict.ItemID, sigma int64, cfg mapreduce.Config) ([]miner.Pattern, mapreduce.Metrics) {
				return must(naive.Mine(f, db, sigma, naive.SemiNaive, cfg))
			}},
		{name: "D-SEQ",
			run: func(f *fst.FST, db [][]dict.ItemID, sigma int64, cfg mapreduce.Config) ([]miner.Pattern, mapreduce.Metrics) {
				return must(dseq.Mine(f, db, sigma, dseq.DefaultOptions(), cfg, nil))
			}},
		{name: "D-CAND",
			run: func(f *fst.FST, db [][]dict.ItemID, sigma int64, cfg mapreduce.Config) ([]miner.Pattern, mapreduce.Metrics) {
				return must(dcand.Mine(f, db, sigma, dcand.DefaultOptions(), cfg, nil))
			}},
	}
}

func (s algoSpec) exec(f *fst.FST, db [][]dict.ItemID, sigma int64, cfg mapreduce.Config, loose bool) runResult {
	if loose && s.skipLoose {
		return runResult{skipped: "candidate explosion"}
	}
	start := time.Now()
	patterns, metrics := s.run(f, db, sigma, cfg)
	return runResult{patterns: patterns, metrics: metrics, elapsed: time.Since(start)}
}

// must unwraps a mining run. The experiments run every miner alone in this
// process with an unbounded shuffle, which cannot fail.
func must(patterns []miner.Pattern, metrics mapreduce.Metrics, err error) ([]miner.Pattern, mapreduce.Metrics) {
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return patterns, metrics
}

func (ds *Datasets) config() mapreduce.Config {
	return mapreduce.Config{MapWorkers: ds.Scale.Workers, ReduceWorkers: ds.Scale.Workers}
}

// ---------------------------------------------------------------------------
// Table II: dataset characteristics
// ---------------------------------------------------------------------------

// TableII reports the dataset and hierarchy characteristics of the synthetic
// datasets (paper Table II).
func TableII(ds *Datasets) Table {
	t := Table{
		Title:  "Table II: dataset and hierarchy characteristics (synthetic, scaled down)",
		Header: []string{"", "NYT-like", "AMZN-like", "AMZN-F-like", "CW-like"},
	}
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
	return t
}

// ---------------------------------------------------------------------------
// Table III: example constraints and found frequent sequences
// ---------------------------------------------------------------------------

// TableIII mines every N/A/T constraint with D-SEQ and reports the number of
// frequent sequences plus a few examples (paper Table III).
func TableIII(ds *Datasets) (Table, error) {
	t := Table{
		Title:  "Table III: example subsequence constraints with found frequent sequences",
		Header: []string{"Constraint", "Dataset", "Pattern expression", "#Frequent", "Example frequent sequences (support)"},
	}
	constraints := append(NYTConstraints(ds.Scale), AmazonConstraints(ds.Scale)...)
	constraints = append(constraints, TraditionalConstraints(ds.Scale)...)
	cfg := ds.config()
	for _, c := range constraints {
		db := c.DB(ds)
		f, err := c.Compile(ds)
		if err != nil {
			return t, fmt.Errorf("%s: %w", c.Name, err)
		}
		patterns, _ := must(dseq.Mine(f, db.Sequences, c.Sigma, dseq.DefaultOptions(), cfg, nil))
		t.Add(c.Name, c.Dataset, c.Expression, fmt.Sprint(len(patterns)), examplePatterns(db.Dict, patterns, 3))
	}
	return t, nil
}

func examplePatterns(d *dict.Dictionary, ps []miner.Pattern, n int) string {
	parts := make([]string, 0, n)
	for i, p := range ps {
		if i >= n {
			break
		}
		parts = append(parts, fmt.Sprintf("'%s' (%d)", d.DecodeString(p.Items), p.Freq))
	}
	if len(parts) == 0 {
		return "-"
	}
	return joinCells(parts)
}

func joinCells(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}

// ---------------------------------------------------------------------------
// Table IV: candidate subsequences per input sequence (CSPI)
// ---------------------------------------------------------------------------

// TableIV reports the candidate statistics of each constraint (paper Table
// IV): fraction of matched sequences, total number of candidates and
// mean/median candidates per matched sequence. Values are computed on a
// sample of the input sequences with a per-sequence enumeration cap.
func TableIV(ds *Datasets) (Table, error) {
	t := Table{
		Title:  "Table IV: statistics on candidate subsequences (Gσπ, sampled)",
		Header: []string{"Constraint", "Dataset", "matched seqs (%)", "#cand. seqs", "CSPI mean", "CSPI median"},
	}
	const sampleSize = 400
	const perSeqCap = 20000
	constraints := append(NYTConstraints(ds.Scale), AmazonConstraints(ds.Scale)...)
	constraints = append(constraints, TraditionalConstraints(ds.Scale)...)
	for _, c := range constraints {
		db := c.DB(ds)
		f, err := c.Compile(ds)
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

// Fig9a compares Naive, SemiNaive, D-SEQ and D-CAND on the NYT constraints
// (paper Fig. 9a).
func Fig9a(ds *Datasets) (Table, error) {
	return figure9(ds, "Fig. 9a: total time on NYT-like (flexible constraints)", NYTConstraints(ds.Scale))
}

// Fig9b compares the algorithms on the AMZN constraints (paper Fig. 9b).
func Fig9b(ds *Datasets) (Table, error) {
	return figure9(ds, "Fig. 9b: total time on AMZN-like (flexible constraints)", AmazonConstraints(ds.Scale))
}

func figure9(ds *Datasets, title string, constraints []Constraint) (Table, error) {
	algos := standardAlgos()
	t := Table{Title: title, Header: []string{"Constraint"}}
	for _, a := range algos {
		t.Header = append(t.Header, a.name)
	}
	t.Header = append(t.Header, "#Frequent")
	cfg := ds.config()
	for _, c := range constraints {
		db := c.DB(ds)
		f, err := c.Compile(ds)
		if err != nil {
			return t, fmt.Errorf("%s: %w", c.Name, err)
		}
		row := []string{c.Name}
		numFrequent := -1
		for _, a := range algos {
			r := a.exec(f, db.Sequences, c.Sigma, cfg, c.Loose)
			row = append(row, r.timeCell())
			if r.skipped == "" {
				if numFrequent >= 0 && numFrequent != len(r.patterns) {
					return t, fmt.Errorf("%s: algorithms disagree (%d vs %d frequent sequences)", c.Name, numFrequent, len(r.patterns))
				}
				numFrequent = len(r.patterns)
			}
		}
		row = append(row, fmt.Sprint(numFrequent))
		t.Add(row...)
	}
	return t, nil
}

// Fig9c reports the shuffle sizes of the four algorithms for A1 and A4
// (paper Fig. 9c).
func Fig9c(ds *Datasets) (Table, error) {
	algos := standardAlgos()
	t := Table{Title: "Fig. 9c: shuffle size on AMZN-like", Header: []string{"Constraint"}}
	for _, a := range algos {
		t.Header = append(t.Header, a.name)
	}
	cfg := ds.config()
	amazon := AmazonConstraints(ds.Scale)
	selected := []Constraint{amazon[0], amazon[3]} // A1 and A4
	for _, c := range selected {
		db := c.DB(ds)
		f, err := c.Compile(ds)
		if err != nil {
			return t, err
		}
		row := []string{c.Name}
		for _, a := range algos {
			r := a.exec(f, db.Sequences, c.Sigma, cfg, c.Loose)
			if r.skipped != "" {
				row = append(row, "n/a")
				continue
			}
			row = append(row, formatBytes(r.metrics.ShuffleBytes))
		}
		t.Add(row...)
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Fig. 10: detailed analysis (ablations)
// ---------------------------------------------------------------------------

// Fig10a measures the effect of the position-state grid, sequence rewriting
// and early stopping in D-SEQ (paper Fig. 10a). The "no stop" columns ablate
// the per-cell rule: a prefix without the pivot is grown from, and counts
// towards its children's supports, every productive cell rather than only
// those that can still output the pivot. The horizontal line of the paper's
// bars (start of the mine stage) corresponds to the map-time column.
func Fig10a(ds *Datasets) (Table, error) {
	variants := []struct {
		name string
		opts dseq.Options
	}{
		{"no stop, no rewrites, no grid", dseq.Options{}},
		{"no stop, no rewrites", dseq.Options{UseGrid: true}},
		{"no stop", dseq.Options{UseGrid: true, Rewrite: true}},
		{"D-SEQ (all)", dseq.DefaultOptions()},
	}
	t := Table{Title: "Fig. 10a: D-SEQ detailed analysis (total time / map time)",
		Header: []string{"Constraint"}}
	for _, v := range variants {
		t.Header = append(t.Header, v.name)
	}
	cfg := ds.config()
	amazon := AmazonConstraints(ds.Scale)
	nyt := NYTConstraints(ds.Scale)
	trad := TraditionalConstraints(ds.Scale)
	constraints := []Constraint{amazon[0], nyt[4], trad[0]} // A1, N5, T3
	for _, c := range constraints {
		db := c.DB(ds)
		f, err := c.Compile(ds)
		if err != nil {
			return t, err
		}
		row := []string{c.Name}
		var baseline int
		for i, v := range variants {
			start := time.Now()
			patterns, metrics := must(dseq.Mine(f, db.Sequences, c.Sigma, v.opts, cfg, nil))
			elapsed := time.Since(start)
			if i == 0 {
				baseline = len(patterns)
			} else if len(patterns) != baseline {
				return t, fmt.Errorf("%s: variant %q changed the result", c.Name, v.name)
			}
			row = append(row, fmt.Sprintf("%s / %s", formatDuration(elapsed), formatDuration(metrics.MapTime)))
		}
		t.Add(row...)
	}
	return t, nil
}

// Fig10b measures the effect of NFA minimization and aggregation in D-CAND
// (paper Fig. 10b).
func Fig10b(ds *Datasets) (Table, error) {
	variants := []struct {
		name string
		opts dcand.Options
	}{
		{"tries, no agg", dcand.Options{}},
		{"tries", dcand.Options{Aggregate: true}},
		{"D-CAND (all)", dcand.DefaultOptions()},
	}
	t := Table{Title: "Fig. 10b: D-CAND detailed analysis (total time / shuffle size)",
		Header: []string{"Constraint"}}
	for _, v := range variants {
		t.Header = append(t.Header, v.name)
	}
	cfg := ds.config()
	amazon := AmazonConstraints(ds.Scale)
	nyt := NYTConstraints(ds.Scale)
	trad := TraditionalConstraints(ds.Scale)
	constraints := []Constraint{amazon[0], nyt[3], trad[0]} // A1, N4, T3
	for _, c := range constraints {
		db := c.DB(ds)
		f, err := c.Compile(ds)
		if err != nil {
			return t, err
		}
		row := []string{c.Name}
		var baseline int
		for i, v := range variants {
			start := time.Now()
			patterns, metrics := must(dcand.Mine(f, db.Sequences, c.Sigma, v.opts, cfg, nil))
			elapsed := time.Since(start)
			if i == 0 {
				baseline = len(patterns)
			} else if len(patterns) != baseline {
				return t, fmt.Errorf("%s: variant %q changed the result", c.Name, v.name)
			}
			row = append(row, fmt.Sprintf("%s / %s", formatDuration(elapsed), formatBytes(metrics.ShuffleBytes)))
		}
		t.Add(row...)
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Fig. 11: scalability
// ---------------------------------------------------------------------------

// scalabilityRun executes D-SEQ and D-CAND once for a scalability setting.
func scalabilityRun(f *fst.FST, seqs [][]dict.ItemID, sigma int64, workers int) (time.Duration, time.Duration) {
	cfg := mapreduce.Config{MapWorkers: workers, ReduceWorkers: workers}
	s1 := time.Now()
	must(dseq.Mine(f, seqs, sigma, dseq.DefaultOptions(), cfg, nil))
	d1 := time.Since(s1)
	s2 := time.Now()
	must(dcand.Mine(f, seqs, sigma, dcand.DefaultOptions(), cfg, nil))
	d2 := time.Since(s2)
	return d1, d2
}

// scalabilityBase returns the constraint, FST and database used by the
// scalability experiments (T3 on AMZN-F-like, as in the paper).
func scalabilityBase(ds *Datasets) (Constraint, *fst.FST, *seqdb.Database, error) {
	base := TraditionalConstraints(ds.Scale)[0]
	f, err := base.Compile(ds)
	if err != nil {
		return base, nil, nil, err
	}
	return base, f, base.DB(ds), nil
}

// Fig11a reports data scalability: 25/50/75/100% of the sequences with
// proportional sigma and a fixed number of workers (paper Fig. 11a).
func Fig11a(ds *Datasets) (Table, error) {
	base, f, db, err := scalabilityBase(ds)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Fig. 11a: data scalability, " + base.Name + " on AMZN-F-like (" + fmt.Sprint(ds.Scale.Workers) + " workers)",
		Header: []string{"% of data", "sigma", "D-SEQ", "D-CAND"},
	}
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		sample := db.Sample(frac, 42)
		sigma := int64(float64(base.Sigma) * frac)
		if sigma < 2 {
			sigma = 2
		}
		d1, d2 := scalabilityRun(f, sample.Sequences, sigma, ds.Scale.Workers)
		t.Add(fmt.Sprintf("%.0f%%", frac*100), fmt.Sprint(sigma), formatDuration(d1), formatDuration(d2))
	}
	return t, nil
}

// Fig11b reports strong scalability: the full dataset with 2, 4 and 8 workers
// (paper Fig. 11b).
func Fig11b(ds *Datasets) (Table, error) {
	base, f, db, err := scalabilityBase(ds)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Fig. 11b: strong scalability, " + base.Name + " on AMZN-F-like (100% of data)",
		Header: []string{"Workers", "D-SEQ", "D-CAND"},
	}
	for _, workers := range []int{2, 4, 8} {
		d1, d2 := scalabilityRun(f, db.Sequences, base.Sigma, workers)
		t.Add(fmt.Sprint(workers), formatDuration(d1), formatDuration(d2))
	}
	return t, nil
}

// Fig11c reports weak scalability: the data grows proportionally with the
// number of workers (paper Fig. 11c).
func Fig11c(ds *Datasets) (Table, error) {
	base, f, db, err := scalabilityBase(ds)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Fig. 11c: weak scalability, " + base.Name + " on AMZN-F-like",
		Header: []string{"Workers (% of data)", "sigma", "D-SEQ", "D-CAND"},
	}
	weak := []struct {
		workers int
		frac    float64
	}{{2, 0.25}, {4, 0.5}, {6, 0.75}, {8, 1.0}}
	for _, w := range weak {
		sample := db.Sample(w.frac, 42)
		sigma := int64(float64(base.Sigma) * w.frac)
		if sigma < 2 {
			sigma = 2
		}
		d1, d2 := scalabilityRun(f, sample.Sequences, sigma, w.workers)
		t.Add(fmt.Sprintf("%d (%.0f%%)", w.workers, w.frac*100), fmt.Sprint(sigma), formatDuration(d1), formatDuration(d2))
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Table V: speed-up over sequential execution
// ---------------------------------------------------------------------------

// TableV compares sequential DESQ-DFS with distributed D-SEQ and D-CAND
// (paper Table V).
func TableV(ds *Datasets) (Table, error) {
	t := Table{
		Title:  "Table V: speed-up over sequential execution (DESQ-DFS on 1 worker)",
		Header: []string{"Constraint", "Dataset", "DESQ-DFS", "D-SEQ", "D-CAND"},
	}
	nyt := NYTConstraints(ds.Scale)
	trad := TraditionalConstraints(ds.Scale)
	constraints := []Constraint{nyt[3], nyt[4], trad[0], trad[1], trad[2]} // N4, N5, T3 low/high, T2
	cfg := ds.config()
	for _, c := range constraints {
		db := c.DB(ds)
		f, err := c.Compile(ds)
		if err != nil {
			return t, err
		}
		s0 := time.Now()
		seq := miner.MineDFS(f, miner.Weighted(db.Sequences), c.Sigma, miner.DFSOptions{})
		d0 := time.Since(s0)

		s1 := time.Now()
		p1, _ := must(dseq.Mine(f, db.Sequences, c.Sigma, dseq.DefaultOptions(), cfg, nil))
		d1 := time.Since(s1)

		s2 := time.Now()
		p2, _ := must(dcand.Mine(f, db.Sequences, c.Sigma, dcand.DefaultOptions(), cfg, nil))
		d2 := time.Since(s2)

		if len(seq) != len(p1) || len(seq) != len(p2) {
			return t, fmt.Errorf("%s: result mismatch (seq %d, dseq %d, dcand %d)", c.Name, len(seq), len(p1), len(p2))
		}
		speedup := func(d time.Duration) string {
			if d == 0 {
				return "-"
			}
			return fmt.Sprintf("%s (%.1fx)", formatDuration(d), float64(d0)/float64(d))
		}
		t.Add(c.Name, c.Dataset, formatDuration(d0), speedup(d1), speedup(d2))
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
func Fig12(ds *Datasets) (Table, error) {
	t := Table{
		Title:  "Fig. 12: LASH setting (generalization overhead of the flexible miners)",
		Header: []string{"Constraint", "Dataset", "LASH", "D-SEQ", "D-CAND", "D-SEQ/LASH"},
	}
	cfg := ds.config()
	fa := float64(ds.Scale.AmazonCustomers) / 6000.0
	fc := float64(ds.Scale.ClueWebSentences) / 10000.0
	sig := func(base, f float64) int64 {
		v := int64(base * f)
		if v < 2 {
			v = 2
		}
		return v
	}
	cases := []struct {
		name      string
		db        *seqdb.Database
		dbName    string
		gamma     int
		lambda    int
		hierarchy bool
		sigma     int64
	}{
		{"T3(γ=1,λ=5)", ds.AMZNF, "AMZN-F", 1, 5, true, sig(25, fa)},
		{"T3(γ=1,λ=5) low σ", ds.AMZNF, "AMZN-F", 1, 5, true, sig(10, fa)},
		{"T3(γ=2,λ=5)", ds.AMZNF, "AMZN-F", 2, 5, true, sig(25, fa)},
		{"T3(γ=1,λ=6)", ds.AMZNF, "AMZN-F", 1, 6, true, sig(25, fa)},
		{"T2(γ=0,λ=5)", ds.CW, "CW", 0, 5, false, sig(20, fc)},
		{"T2(γ=0,λ=5) low σ", ds.CW, "CW", 0, 5, false, sig(10, fc)},
	}
	for _, c := range cases {
		var expr string
		if c.hierarchy {
			expr = T3Expr(c.gamma, c.lambda)
		} else {
			expr = T2Expr(c.gamma, c.lambda)
		}
		f, err := fst.Compile(expr, c.db.Dict)
		if err != nil {
			return t, err
		}
		constraint := lash.Constraint{MaxGap: c.gamma, MaxLength: c.lambda, MinLength: 2, Hierarchy: c.hierarchy}

		s0 := time.Now()
		p0, _ := must(lash.Mine(c.db.Dict, c.db.Sequences, c.sigma, constraint, cfg))
		d0 := time.Since(s0)

		s1 := time.Now()
		p1, _ := must(dseq.Mine(f, c.db.Sequences, c.sigma, dseq.DefaultOptions(), cfg, nil))
		d1 := time.Since(s1)

		s2 := time.Now()
		p2, _ := must(dcand.Mine(f, c.db.Sequences, c.sigma, dcand.DefaultOptions(), cfg, nil))
		d2 := time.Since(s2)

		if len(p0) != len(p1) || len(p0) != len(p2) {
			return t, fmt.Errorf("%s: result mismatch (lash %d, dseq %d, dcand %d)", c.name, len(p0), len(p1), len(p2))
		}
		overhead := "-"
		if d0 > 0 {
			overhead = fmt.Sprintf("%.1fx", float64(d1)/float64(d0))
		}
		t.Add(c.name+fmt.Sprintf(" σ=%d", c.sigma), c.dbName,
			formatDuration(d0), formatDuration(d1), formatDuration(d2), overhead)
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
func Fig13(ds *Datasets) (Table, error) {
	t := Table{
		Title:  "Fig. 13: MLlib setting, T1(σ,5) on AMZN-like without hierarchy",
		Header: []string{"sigma", "MLlib (PrefixSpan)", "LASH", "D-SEQ", "D-CAND", "#Frequent"},
	}
	db := ds.AMZN
	lambda := 5
	f, err := fst.Compile(T1Expr(lambda), db.Dict)
	if err != nil {
		return t, err
	}
	cfg := ds.config()
	// Minimum supports as fractions of the number of customers (the paper
	// sweeps 6400 down to 25 on 21M sequences; the lowest settings are
	// intentionally omitted — they lead to pattern explosion for every
	// algorithm, which is the ">24h" region of the paper's figure).
	sigmas := []int64{}
	for _, frac := range []float64{0.10, 0.067, 0.05, 0.033} {
		v := int64(frac * float64(ds.Scale.AmazonCustomers))
		if v < 3 {
			v = 3
		}
		sigmas = append(sigmas, v)
	}
	constraint := lash.Constraint{MaxGap: 1 << 20, MaxLength: lambda, MinLength: 1, Hierarchy: false}
	for _, sigma := range sigmas {
		s0 := time.Now()
		p0 := prefixspan.Mine(db.Dict, db.Sequences, sigma, prefixspan.Options{MaxLength: lambda, Workers: ds.Scale.Workers})
		d0 := time.Since(s0)

		s1 := time.Now()
		p1, _ := must(lash.Mine(db.Dict, db.Sequences, sigma, constraint, cfg))
		d1 := time.Since(s1)

		s2 := time.Now()
		p2, _ := must(dseq.Mine(f, db.Sequences, sigma, dseq.DefaultOptions(), cfg, nil))
		d2 := time.Since(s2)

		if len(p0) != len(p1) || len(p0) != len(p2) {
			return t, fmt.Errorf("sigma %d: result mismatch (prefixspan %d, lash %d, dseq %d)", sigma, len(p0), len(p1), len(p2))
		}
		t.Add(fmt.Sprint(sigma), formatDuration(d0), formatDuration(d1), formatDuration(d2),
			"n/a (run explosion)", fmt.Sprint(len(p0)))
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// RunAll
// ---------------------------------------------------------------------------

// RunAll executes the full experiment suite at the given scale and writes the
// tables to w (markdown when markdown is true, aligned text otherwise).
func RunAll(s Scale, w io.Writer, markdown bool) error {
	start := time.Now()
	ds, err := Generate(s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Experiment suite at scale %+v (dataset generation: %s)\n\n", s, formatDuration(time.Since(start)))

	emit := func(t Table, err error) error {
		if err != nil {
			return err
		}
		if markdown {
			fmt.Fprintln(w, t.Markdown())
		} else {
			fmt.Fprintln(w, t.String())
		}
		return nil
	}
	if err := emit(TableII(ds), nil); err != nil {
		return err
	}
	if err := emit(TableIII(ds)); err != nil {
		return err
	}
	if err := emit(TableIV(ds)); err != nil {
		return err
	}
	if err := emit(Fig9a(ds)); err != nil {
		return err
	}
	if err := emit(Fig9b(ds)); err != nil {
		return err
	}
	if err := emit(Fig9c(ds)); err != nil {
		return err
	}
	if err := emit(Fig10a(ds)); err != nil {
		return err
	}
	if err := emit(Fig10b(ds)); err != nil {
		return err
	}
	if err := emit(Fig11a(ds)); err != nil {
		return err
	}
	if err := emit(Fig11b(ds)); err != nil {
		return err
	}
	if err := emit(Fig11c(ds)); err != nil {
		return err
	}
	if err := emit(TableV(ds)); err != nil {
		return err
	}
	if err := emit(Fig12(ds)); err != nil {
		return err
	}
	if err := emit(Fig13(ds)); err != nil {
		return err
	}
	fmt.Fprintf(w, "Total experiment time: %s\n", formatDuration(time.Since(start)))
	return nil
}
