package benchcmp_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"seqmine/internal/benchcmp"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: seqmine
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkAlgorithms_N1/D-SEQ-8         	       3	   2568312 ns/op
BenchmarkAlgorithms_N1/D-SEQ-8         	       3	   2600000 ns/op
BenchmarkAlgorithms_N1/D-CAND-8        	       3	   4034567 ns/op
BenchmarkWordCount/workers-4-8         	       3	   1534256 ns/op
BenchmarkCalibration-8                 	       3	   8000000 ns/op
PASS
ok  	seqmine	101.882s
`

func TestParse(t *testing.T) {
	got, err := benchcmp.Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got["BenchmarkAlgorithms_N1/D-SEQ"]) != 2 {
		t.Errorf("D-SEQ samples = %v, want 2 entries under the normalized name", got)
	}
	// The GOMAXPROCS suffix is stripped but a trailing sub-benchmark number
	// is kept: workers-4 must survive.
	if len(got["BenchmarkWordCount/workers-4"]) != 1 {
		t.Errorf("workers-4 lost its identity: %v", benchcmp.SortedNames(got))
	}
	if _, err := benchcmp.Parse(strings.NewReader("no benchmarks here")); err == nil {
		t.Error("expected an error for output without benchmark lines")
	}
}

func TestMedian(t *testing.T) {
	if m := benchcmp.Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := benchcmp.Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := benchcmp.Median(nil); !math.IsNaN(m) {
		t.Errorf("empty median = %v, want NaN", m)
	}
}

func baseline(benches map[string][]float64) *benchcmp.Baseline {
	return &benchcmp.Baseline{Schema: 2, Benchmarks: benches}
}

func TestCompareGate(t *testing.T) {
	base := baseline(map[string][]float64{
		"BenchmarkA": {100, 100, 100},
		"BenchmarkB": {200, 200, 200},
	})
	// 10% regression on A, none on B: geomean ~1.049, under a 1.15 gate.
	rep, err := benchcmp.Compare(base, map[string][]float64{
		"BenchmarkA": {110},
		"BenchmarkB": {200},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Geomean > 1.15 || rep.Geomean < 1.0 {
		t.Errorf("geomean = %v, want ~1.049", rep.Geomean)
	}

	// 50% regression on both: geomean 1.5, over the gate.
	rep, err = benchcmp.Compare(base, map[string][]float64{
		"BenchmarkA": {150},
		"BenchmarkB": {300},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Geomean-1.5) > 1e-9 {
		t.Errorf("geomean = %v, want 1.5", rep.Geomean)
	}
}

func TestCompareTolerance(t *testing.T) {
	base := baseline(map[string][]float64{
		"BenchmarkA":     {100},
		"BenchmarkNoisy": {100},
	})
	base.Tolerance = map[string]float64{"BenchmarkNoisy": 2.0}
	base.AllocsPerOp = map[string][]float64{
		"BenchmarkA":     {9},
		"BenchmarkNoisy": {9},
	}

	// The noisy benchmark triples while staying out of both geomeans.
	rep, err := benchcmp.CompareFull(base, &benchcmp.Samples{
		Ns:     map[string][]float64{"BenchmarkA": {100}, "BenchmarkNoisy": {300}},
		Allocs: map[string][]float64{"BenchmarkA": {9}, "BenchmarkNoisy": {39}},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Geomean-1.0) > 1e-9 || math.Abs(rep.AllocGeomean-1.0) > 1e-9 {
		t.Errorf("geomeans = %v / %v, want 1.0: toleranced benchmarks must not contribute", rep.Geomean, rep.AllocGeomean)
	}
	if len(rep.Toleranced) != 1 || rep.Toleranced[0].Name != "BenchmarkNoisy" || math.Abs(rep.Toleranced[0].Ratio-3.0) > 1e-9 {
		t.Errorf("Toleranced = %+v, want BenchmarkNoisy at ratio 3.0", rep.Toleranced)
	}
	if len(rep.TolerancedAllocs) != 1 || math.Abs(rep.TolerancedAllocs[0].Ratio-4.0) > 1e-9 {
		t.Errorf("TolerancedAllocs = %+v, want BenchmarkNoisy at smoothed ratio 4.0", rep.TolerancedAllocs)
	}
	if fails := rep.GateFailures(); len(fails) != 2 {
		t.Errorf("GateFailures = %v, want both the time and alloc tolerance breaches", fails)
	}

	// Within tolerance: 1.8x would breach the 1.15 geomean gate but passes
	// the benchmark's own 2.0 bound.
	rep, err = benchcmp.CompareFull(base, &benchcmp.Samples{
		Ns:     map[string][]float64{"BenchmarkA": {100}, "BenchmarkNoisy": {180}},
		Allocs: map[string][]float64{"BenchmarkA": {9}, "BenchmarkNoisy": {9}},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	if fails := rep.GateFailures(); len(fails) != 0 {
		t.Errorf("GateFailures = %v, want none within tolerance", fails)
	}
}

func TestCompareCalibration(t *testing.T) {
	base := baseline(map[string][]float64{
		"BenchmarkA":           {100},
		"BenchmarkCalibration": {1000},
	})
	// The current machine is 2x slower across the board: the calibration
	// benchmark doubles too, so the normalized ratio is 1.
	rep, err := benchcmp.Compare(base, map[string][]float64{
		"BenchmarkA":           {200},
		"BenchmarkCalibration": {2000},
	}, "BenchmarkCalibration")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.CalibrationScale-2.0) > 1e-9 {
		t.Errorf("calibration scale = %v, want 2", rep.CalibrationScale)
	}
	if math.Abs(rep.Geomean-1.0) > 1e-9 {
		t.Errorf("calibrated geomean = %v, want 1", rep.Geomean)
	}
	for _, res := range rep.Results {
		if res.Name == "BenchmarkCalibration" {
			t.Error("the calibration benchmark must be excluded from the gated results")
		}
	}
}

func TestCompareMissing(t *testing.T) {
	base := baseline(map[string][]float64{"BenchmarkA": {100}, "BenchmarkGone": {50}})
	rep, err := benchcmp.Compare(base, map[string][]float64{"BenchmarkA": {100}, "BenchmarkNew": {10}}, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.MissingInCurrent) != 1 || rep.MissingInCurrent[0] != "BenchmarkGone" {
		t.Errorf("MissingInCurrent = %v", rep.MissingInCurrent)
	}
	if len(rep.MissingInBaseline) != 1 || rep.MissingInBaseline[0] != "BenchmarkNew" {
		t.Errorf("MissingInBaseline = %v", rep.MissingInBaseline)
	}
	if _, err := benchcmp.Compare(base, map[string][]float64{"BenchmarkNew": {10}}, ""); err == nil {
		t.Error("expected an error when nothing overlaps the baseline")
	}
}

func TestBaselineRoundTripAndEmit(t *testing.T) {
	samples, err := benchcmp.Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	b := &benchcmp.Baseline{Schema: 2, Command: "test", GoVersion: "go0.0", Benchmarks: samples}
	var buf bytes.Buffer
	if err := benchcmp.WriteBaseline(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := benchcmp.ReadBaseline(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != len(b.Benchmarks) {
		t.Errorf("round trip lost benchmarks: %d vs %d", len(got.Benchmarks), len(b.Benchmarks))
	}

	var text bytes.Buffer
	if err := benchcmp.EmitText(&text, got); err != nil {
		t.Fatal(err)
	}
	// The emitted text must parse back to the same normalized sample sets.
	reparsed, err := benchcmp.Parse(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range got.Benchmarks {
		if len(reparsed[name]) != len(s) {
			t.Errorf("%s: emitted text reparsed to %d samples, want %d", name, len(reparsed[name]), len(s))
		}
	}

	// A stale or foreign file must say what to do about it.
	for _, tc := range []struct{ name, file, want string }{
		{"retired time-only schema", `{"schema":1,"benchmarks":{"BenchmarkA":[1]}}`, "re-record"},
		{"future schema", `{"schema":99}`, "newer than this benchgate"},
	} {
		if _, err := benchcmp.ReadBaseline(strings.NewReader(tc.file)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestCompareCalibrationMissingFromCurrent(t *testing.T) {
	base := baseline(map[string][]float64{
		"BenchmarkA":           {100},
		"BenchmarkCalibration": {1000},
	})
	// The baseline expects calibration; a current run without it must be
	// reported as missing so the CLI gate refuses the partial comparison.
	rep, err := benchcmp.Compare(base, map[string][]float64{"BenchmarkA": {100}}, "BenchmarkCalibration")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range rep.MissingInCurrent {
		if name == "BenchmarkCalibration" {
			found = true
		}
	}
	if !found {
		t.Errorf("MissingInCurrent = %v, want it to include the calibration benchmark", rep.MissingInCurrent)
	}
	if rep.CalibrationScale != 1 {
		t.Errorf("scale = %v, want the neutral 1 when calibration is absent", rep.CalibrationScale)
	}
}

const benchmemOutput = `goos: linux
BenchmarkAlgorithms_T3/DESQ-DFS-8   	     100	  10500000 ns/op	  373049 B/op	    3207 allocs/op
BenchmarkAlgorithms_T3/DESQ-DFS-8   	     100	  10600000 ns/op	  373100 B/op	    3210 allocs/op
BenchmarkZeroAlloc-8                	 1000000	      1000 ns/op	       0 B/op	       0 allocs/op
BenchmarkCalibration-8              	       3	   8000000 ns/op	      16 B/op	       1 allocs/op
PASS
`

func TestParseAllBenchmem(t *testing.T) {
	got, err := benchcmp.ParseAll(strings.NewReader(benchmemOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ns["BenchmarkAlgorithms_T3/DESQ-DFS"]) != 2 {
		t.Errorf("ns samples = %v", got.Ns)
	}
	if a := got.Allocs["BenchmarkAlgorithms_T3/DESQ-DFS"]; len(a) != 2 || a[0] != 3207 {
		t.Errorf("allocs samples = %v", a)
	}
	if b := got.Bytes["BenchmarkAlgorithms_T3/DESQ-DFS"]; len(b) != 2 || b[0] != 373049 {
		t.Errorf("bytes samples = %v", b)
	}
	if a := got.Allocs["BenchmarkZeroAlloc"]; len(a) != 1 || a[0] != 0 {
		t.Errorf("zero-alloc samples = %v", a)
	}
	// Output without -benchmem still parses, with empty allocation maps.
	plain, err := benchcmp.ParseAll(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Allocs) != 0 || len(plain.Bytes) != 0 {
		t.Errorf("plain output produced allocation samples: %v %v", plain.Allocs, plain.Bytes)
	}
}

func TestCompareFullAllocGate(t *testing.T) {
	base := &benchcmp.Baseline{
		Schema:     2,
		Benchmarks: map[string][]float64{"BenchmarkA": {100}, "BenchmarkZ": {50}},
		AllocsPerOp: map[string][]float64{
			"BenchmarkA": {1000},
			"BenchmarkZ": {0}, // zero-alloc benchmark: the +1 smoothing keeps it defined
		},
	}
	cur := &benchcmp.Samples{
		Ns:     map[string][]float64{"BenchmarkA": {100}, "BenchmarkZ": {50}},
		Allocs: map[string][]float64{"BenchmarkA": {2000}, "BenchmarkZ": {0}},
	}
	rep, err := benchcmp.CompareFull(base, cur, "")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Geomean-1.0) > 1e-9 {
		t.Errorf("time geomean = %v, want 1 (times unchanged)", rep.Geomean)
	}
	// A's smoothed ratio is 2001/1001 ≈ 2, Z's is 1; geomean ≈ sqrt(2).
	want := math.Sqrt(2001.0 / 1001.0)
	if math.Abs(rep.AllocGeomean-want) > 1e-9 {
		t.Errorf("alloc geomean = %v, want %v", rep.AllocGeomean, want)
	}
	if len(rep.AllocResults) != 2 || rep.AllocResults[0].Name != "BenchmarkA" {
		t.Errorf("alloc results = %+v, want BenchmarkA first (largest ratio)", rep.AllocResults)
	}

	// A current run without -benchmem must be flagged as partial.
	rep, err = benchcmp.CompareFull(base, &benchcmp.Samples{Ns: cur.Ns}, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.MissingInCurrent) != 2 {
		t.Errorf("MissingInCurrent = %v, want both alloc entries", rep.MissingInCurrent)
	}
}

func TestSchema2RoundTrip(t *testing.T) {
	samples, err := benchcmp.ParseAll(strings.NewReader(benchmemOutput))
	if err != nil {
		t.Fatal(err)
	}
	b := &benchcmp.Baseline{
		Schema:      2,
		Benchmarks:  samples.Ns,
		BytesPerOp:  samples.Bytes,
		AllocsPerOp: samples.Allocs,
	}
	var buf bytes.Buffer
	if err := benchcmp.WriteBaseline(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := benchcmp.ReadBaseline(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.AllocsPerOp) != len(b.AllocsPerOp) || len(got.BytesPerOp) != len(b.BytesPerOp) {
		t.Errorf("schema-2 round trip lost allocation samples")
	}
	// Emitted text must carry the allocation columns back through ParseAll.
	var text bytes.Buffer
	if err := benchcmp.EmitText(&text, got); err != nil {
		t.Fatal(err)
	}
	reparsed, err := benchcmp.ParseAll(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range got.AllocsPerOp {
		if len(reparsed.Allocs[name]) != len(s) {
			t.Errorf("%s: emitted text lost allocs/op samples", name)
		}
	}
}

func TestFormatMarkdown(t *testing.T) {
	base := &benchcmp.Baseline{
		Schema:      2,
		Benchmarks:  map[string][]float64{"BenchmarkA": {100}},
		AllocsPerOp: map[string][]float64{"BenchmarkA": {10}},
	}
	cur := &benchcmp.Samples{
		Ns:     map[string][]float64{"BenchmarkA": {200}},
		Allocs: map[string][]float64{"BenchmarkA": {30}},
	}
	rep, err := benchcmp.CompareFull(base, cur, "")
	if err != nil {
		t.Fatal(err)
	}
	var md bytes.Buffer
	rep.FormatMarkdown(&md, 1.15, 1.15)
	out := md.String()
	for _, want := range []string{"| benchmark |", "BenchmarkA", "⚠", "Allocation geomean"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown output missing %q:\n%s", want, out)
		}
	}
}

// TestFormatMarkdownMapPhaseSection: the map-phase kernel benchmarks are
// pulled out of the main tables into their own section of the step summary.
func TestFormatMarkdownMapPhaseSection(t *testing.T) {
	base := &benchcmp.Baseline{
		Schema: 2,
		Benchmarks: map[string][]float64{
			"BenchmarkAlgorithms_T3/D-SEQ":  {100},
			"BenchmarkPivotAnalyze_T3/Grid": {50},
			"BenchmarkMineCount":            {40},
			"BenchmarkDCandMap_T3/Tries":    {30},
			"BenchmarkMinimize":             {20},
		},
		AllocsPerOp: map[string][]float64{
			"BenchmarkPivotAnalyze_T3/Grid": {10},
		},
	}
	cur := &benchcmp.Samples{
		Ns: map[string][]float64{
			"BenchmarkAlgorithms_T3/D-SEQ":  {100},
			"BenchmarkPivotAnalyze_T3/Grid": {50},
			"BenchmarkMineCount":            {40},
			"BenchmarkDCandMap_T3/Tries":    {30},
			"BenchmarkMinimize":             {20},
		},
		Allocs: map[string][]float64{
			"BenchmarkPivotAnalyze_T3/Grid": {10},
		},
	}
	rep, err := benchcmp.CompareFull(base, cur, "")
	if err != nil {
		t.Fatal(err)
	}
	var md bytes.Buffer
	rep.FormatMarkdown(&md, 1.15, 1.15)
	out := md.String()
	if !strings.Contains(out, "#### Map-phase kernels") {
		t.Fatalf("markdown output missing the map-phase section:\n%s", out)
	}
	mapSection := out[strings.Index(out, "#### Map-phase kernels"):]
	mainSection := out[:strings.Index(out, "#### Map-phase kernels")]
	for _, name := range []string{"BenchmarkPivotAnalyze_T3/Grid", "BenchmarkMineCount", "BenchmarkDCandMap_T3/Tries", "BenchmarkMinimize"} {
		if strings.Contains(mainSection, name) {
			t.Errorf("%s should only appear in the map-phase section:\n%s", name, out)
		}
		if !strings.Contains(mapSection, name) {
			t.Errorf("%s missing from the map-phase section:\n%s", name, out)
		}
	}
	if !strings.Contains(mainSection, "BenchmarkAlgorithms_T3/D-SEQ") {
		t.Errorf("end-to-end benchmark missing from the main table:\n%s", out)
	}
}
