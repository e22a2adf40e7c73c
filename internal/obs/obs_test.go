package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestStartSpanNoRecorderIsNoop(t *testing.T) {
	ctx, span := StartSpan(context.Background(), "noop")
	if span != nil {
		t.Fatalf("StartSpan without recorder returned non-nil span")
	}
	if tr, _ := SpanContextFrom(ctx); tr != "" {
		t.Fatalf("no-recorder StartSpan leaked a trace id %q", tr)
	}
	// All nil-span methods must be safe.
	span.SetAttr("k", "v")
	span.SetAttrInt("n", 1)
	span.End()
	if span.TraceID() != "" || span.ID() != "" {
		t.Fatalf("nil span ids not empty")
	}
}

func TestSpanNesting(t *testing.T) {
	rec := NewRecorder("test", 0)
	ctx := WithRecorder(context.Background(), rec)
	ctx, root := StartSpan(ctx, "root", String("a", "b"))
	_, child := StartSpan(ctx, "child")
	child.SetAttrInt("n", 42)
	child.End()
	root.End()

	if root.TraceID() == "" || root.TraceID() != child.TraceID() {
		t.Fatalf("trace ids: root=%q child=%q", root.TraceID(), child.TraceID())
	}
	spans := rec.TraceSpans(root.TraceID())
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["child"].Parent != root.ID() {
		t.Fatalf("child parent = %q, want root id %q", byName["child"].Parent, root.ID())
	}
	if byName["root"].Parent != "" {
		t.Fatalf("root has parent %q", byName["root"].Parent)
	}
	if byName["root"].Proc != "test" {
		t.Fatalf("proc = %q, want test", byName["root"].Proc)
	}
	if got := byName["child"].Attrs; len(got) != 1 || got[0].Key != "n" || got[0].Value != "42" {
		t.Fatalf("child attrs = %v", got)
	}
}

func TestSpanEndTwiceRecordsOnce(t *testing.T) {
	rec := NewRecorder("test", 0)
	ctx := WithRecorder(context.Background(), rec)
	_, span := StartSpan(ctx, "once")
	span.End()
	span.End()
	if n := rec.Len(); n != 1 {
		t.Fatalf("recorder has %d spans, want 1", n)
	}
}

func TestObserveRetroactiveSpan(t *testing.T) {
	rec := NewRecorder("test", 0)
	ctx := WithRecorder(context.Background(), rec)
	ctx, root := StartSpan(ctx, "root")
	start := time.Now().Add(-50 * time.Millisecond)
	Observe(ctx, "retro", start, 50*time.Millisecond, Int("bytes", 7))
	root.End()
	spans := rec.TraceSpans(root.TraceID())
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	var retro *SpanRecord
	for i := range spans {
		if spans[i].Name == "retro" {
			retro = &spans[i]
		}
	}
	if retro == nil || retro.Parent != root.ID() || retro.DurationNS != int64(50*time.Millisecond) {
		t.Fatalf("retro span wrong: %+v", retro)
	}
}

func TestRecorderRingEviction(t *testing.T) {
	rec := NewRecorder("test", 4)
	ctx := WithRecorder(context.Background(), rec)
	ctx, root := StartSpan(ctx, "root")
	for i := 0; i < 10; i++ {
		_, s := StartSpan(ctx, "s")
		s.End()
	}
	root.End()
	if n := rec.Len(); n != 4 {
		t.Fatalf("ring holds %d, want 4", n)
	}
	// Records evicted from the ring must also leave the dedupe index, so the
	// index cannot grow without bound.
	if len(rec.seen[root.TraceID()]) != 4 {
		t.Fatalf("dedupe index holds %d ids, want 4", len(rec.seen[root.TraceID()]))
	}
}

func TestRecorderImportDedupes(t *testing.T) {
	rec := NewRecorder("coord", 0)
	remote := []SpanRecord{
		{Trace: "aaaaaaaaaaaaaaaa", Span: "bbbbbbbbbbbbbbbb", Name: "worker.run", Proc: "worker-1", StartUnixNS: 10, DurationNS: 5},
		{Trace: "aaaaaaaaaaaaaaaa", Span: "cccccccccccccccc", Name: "mapreduce.map", Proc: "worker-1", StartUnixNS: 11, DurationNS: 2},
	}
	rec.Import(remote)
	rec.Import(remote) // retried attempt ships the same spans again
	spans := rec.TraceSpans("aaaaaaaaaaaaaaaa")
	if len(spans) != 2 {
		t.Fatalf("got %d spans after duplicate import, want 2", len(spans))
	}
	if spans[0].Proc != "worker-1" {
		t.Fatalf("import overwrote proc: %q", spans[0].Proc)
	}
}

func TestTraceHeaderRoundTrip(t *testing.T) {
	rec := NewRecorder("a", 0)
	ctx := WithRecorder(context.Background(), rec)
	ctx, span := StartSpan(ctx, "root")
	h := http.Header{}
	InjectHeader(ctx, h)
	v := h.Get(TraceHeader)
	if v == "" {
		t.Fatalf("InjectHeader wrote nothing")
	}
	tr, parent, ok := ParseTraceHeader(v)
	if !ok || tr != span.TraceID() || parent != span.ID() {
		t.Fatalf("ParseTraceHeader(%q) = %q, %q, %v", v, tr, parent, ok)
	}

	// Receiving side: ExtractHeader joins the remote trace.
	rec2 := NewRecorder("b", 0)
	ctx2 := WithRecorder(context.Background(), rec2)
	ctx2 = ExtractHeader(ctx2, h)
	_, child := StartSpan(ctx2, "remote-child")
	child.End()
	if child.TraceID() != span.TraceID() {
		t.Fatalf("remote child trace %q, want %q", child.TraceID(), span.TraceID())
	}
	got := rec2.TraceSpans(span.TraceID())
	if len(got) != 1 || got[0].Parent != span.ID() {
		t.Fatalf("remote child parent = %+v, want parent %q", got, span.ID())
	}
	span.End()
}

func TestParseTraceHeaderRejectsGarbage(t *testing.T) {
	for _, v := range []string{"", "zzzz", "abc-def", "0123456789abcdef-xyz", strings.Repeat("0", 16) + "-" + strings.Repeat("g", 16)} {
		if _, _, ok := ParseTraceHeader(v); ok && v != "" {
			t.Fatalf("ParseTraceHeader(%q) accepted garbage", v)
		}
	}
	if tr, parent, ok := ParseTraceHeader("0123456789abcdef"); !ok || tr != "0123456789abcdef" || parent != "" {
		t.Fatalf("parent-less header rejected: %q %q %v", tr, parent, ok)
	}
}

func TestTraceBytesRoundTrip(t *testing.T) {
	rec := NewRecorder("a", 0)
	ctx := WithRecorder(context.Background(), rec)
	ctx, span := StartSpan(ctx, "root")
	defer span.End()
	b := TraceBytes(ctx)
	if len(b) != 16 {
		t.Fatalf("TraceBytes = %d bytes, want 16", len(b))
	}
	tr, parent, ok := ParseTraceBytes(b)
	if !ok || tr != span.TraceID() || parent != span.ID() {
		t.Fatalf("ParseTraceBytes = %q %q %v, want %q %q", tr, parent, ok, span.TraceID(), span.ID())
	}
	if TraceBytes(context.Background()) != nil {
		t.Fatalf("TraceBytes without trace should be nil")
	}
	if _, _, ok := ParseTraceBytes(make([]byte, 16)); ok {
		t.Fatalf("all-zero trace bytes accepted")
	}
	if _, _, ok := ParseTraceBytes([]byte{1, 2, 3}); ok {
		t.Fatalf("short trace bytes accepted")
	}
}

func TestRegistryCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("seqmine_test_total", "help text")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotonic
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	if reg.Counter("seqmine_test_total", "help text") != c {
		t.Fatalf("get-or-create returned a different counter")
	}
	g := reg.Gauge("seqmine_gauge", "g", "shard", "1")
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Fatalf("gauge = %d, want 3", g.Value())
	}
	if reg.Gauge("seqmine_gauge", "g", "shard", "2") == g {
		t.Fatalf("different label set returned same gauge")
	}
}

// TestRegistryLookupDoesNotAllocate pins the lookup of an existing series at
// zero allocations, whatever order its label pairs come in: the spill, send
// and scheduler paths resolve their histograms once per job.
func TestRegistryLookupDoesNotAllocate(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("seqmine_test_seconds", "h", ByteBuckets, "peer", "1", "algorithm", "dseq")
	c := reg.Counter("seqmine_test_total", "c", "algorithm", "dseq")
	g := reg.Gauge("seqmine_test_bytes", "g")
	if n := testing.AllocsPerRun(100, func() {
		if reg.Histogram("seqmine_test_seconds", "h", ByteBuckets, "algorithm", "dseq", "peer", "1") != h ||
			reg.Counter("seqmine_test_total", "c", "algorithm", "dseq") != c || reg.Gauge("seqmine_test_bytes", "g") != g {
			t.Fatal("get-or-create returned a new instrument for an existing series")
		}
	}); n != 0 {
		t.Fatalf("looking up three existing series allocates %.0f times, want 0", n)
	}
}

func TestRegistryNilAndInvalid(t *testing.T) {
	var reg *Registry
	reg.Counter("x", "").Inc()
	reg.Gauge("x", "").Set(1)
	reg.Histogram("x", "", nil).Observe(1)
	live := NewRegistry()
	if live.Counter("0bad", "") != nil {
		t.Fatalf("invalid metric name accepted")
	}
	if live.Counter("ok_name", "", "__reserved", "v") != nil {
		t.Fatalf("reserved label name accepted")
	}
	if live.Counter("odd_labels", "", "k") != nil {
		t.Fatalf("odd label list accepted")
	}
	live.Counter("clash", "")
	if live.Gauge("clash", "") != nil {
		t.Fatalf("type conflict returned an instrument")
	}
}

func TestHistogramBucketsAndExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("seqmine_lat_seconds", "latency", []float64{0.1, 1, 10}, "stage", "mine")
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 55.55 {
		t.Fatalf("sum = %v, want 55.55", h.Sum())
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP seqmine_lat_seconds latency",
		"# TYPE seqmine_lat_seconds histogram",
		`seqmine_lat_seconds_bucket{stage="mine",le="0.1"} 1`,
		`seqmine_lat_seconds_bucket{stage="mine",le="1"} 2`,
		`seqmine_lat_seconds_bucket{stage="mine",le="10"} 3`,
		`seqmine_lat_seconds_bucket{stage="mine",le="+Inf"} 4`,
		`seqmine_lat_seconds_sum{stage="mine"} 55.55`,
		`seqmine_lat_seconds_count{stage="mine"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The renderer's own output must satisfy the validator.
	stats, err := ValidateExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("ValidateExposition rejected our own output: %v\n%s", err, out)
	}
	if stats.SeriesByName["seqmine_lat_seconds_bucket"] != 4 {
		t.Fatalf("validator counted %d bucket samples", stats.SeriesByName["seqmine_lat_seconds_bucket"])
	}
}

func TestExpositionEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("seqmine_esc_total", "help with \\ and\nnewline", "path", `a"b\c`+"\n").Inc()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if _, err := ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("escaped exposition rejected: %v\n%s", err, buf.String())
	}
}

// TestExpositionOfEveryKind: WritePrometheus over labelled counters, gauges
// and histograms, two series each, is valid exposition with every sample.
func TestExpositionOfEveryKind(t *testing.T) {
	reg := NewRegistry()
	for _, algo := range []string{"dfs", "dseq"} {
		reg.Counter("seqmine_kind_total", "counter", "algorithm", algo).Add(3)
		reg.Gauge("seqmine_kind_inflight", "gauge", "algorithm", algo).Set(-2)
		reg.Histogram("seqmine_kind_seconds", "histogram", []float64{0.5, 2}, "algorithm", algo).Observe(1)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	stats, err := ValidateExposition(&buf)
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	want := map[string]int{"seqmine_kind_total": 2, "seqmine_kind_inflight": 2,
		"seqmine_kind_seconds_bucket": 6, "seqmine_kind_seconds_sum": 2, "seqmine_kind_seconds_count": 2}
	if !reflect.DeepEqual(stats.SeriesByName, want) || stats.Samples != 14 {
		t.Errorf("samples = %d %v, want 14 %v", stats.Samples, stats.SeriesByName, want)
	}
	if stats.MaxByName["seqmine_kind_total"] != 3 || stats.MaxByName["seqmine_kind_inflight"] != -2 {
		t.Errorf("values = %v", stats.MaxByName)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"bad metric name":     "0bad 1\n",
		"bad value":           "ok notafloat\n",
		"unclosed labels":     "ok{a=\"b\" 1\n",
		"unquoted label":      "ok{a=b} 1\n",
		"bad escape":          "ok{a=\"\\q\"} 1\n",
		"bad type":            "# TYPE ok weird\n",
		"dup type":            "# TYPE ok counter\n# TYPE ok counter\n",
		"type after samples":  "ok 1\n# TYPE ok counter\n",
		"bare histogram name": "# TYPE h histogram\nh 1\n",
		"bucket without le":   "# TYPE h histogram\nh_bucket 1\n",
		"histogram no inf":    "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"bad timestamp":       "ok 1 notatime\n",
	}
	for name, in := range cases {
		if _, err := ValidateExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
	good := "# random comment\n# HELP ok fine\n# TYPE ok counter\nok{a=\"b\"} 1 123456\n\nuntyped_metric 3.5\n"
	if _, err := ValidateExposition(strings.NewReader(good)); err != nil {
		t.Errorf("valid exposition rejected: %v", err)
	}
}

func TestChromeTraceExport(t *testing.T) {
	base := time.Now().UnixNano()
	spans := []SpanRecord{
		{Trace: "t", Span: "1", Name: "root", Proc: "coordinator", StartUnixNS: base, DurationNS: int64(10 * time.Millisecond)},
		{Trace: "t", Span: "2", Parent: "1", Name: "overlap-a", Proc: "worker-0", StartUnixNS: base + 1e6, DurationNS: int64(5 * time.Millisecond)},
		{Trace: "t", Span: "3", Parent: "1", Name: "overlap-b", Proc: "worker-0", StartUnixNS: base + 2e6, DurationNS: int64(5 * time.Millisecond),
			Attrs: []Attr{{Key: "peer", Value: "0"}}},
	}
	out, err := ChromeTrace(spans)
	if err != nil {
		t.Fatalf("ChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("export is not JSON: %v", err)
	}
	var meta, complete int
	tids := map[string]float64{}
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			complete++
			if name, ok := ev["name"].(string); ok && strings.HasPrefix(name, "overlap") {
				tids[name] = ev["tid"].(float64)
			}
		}
	}
	if meta != 2 {
		t.Fatalf("got %d process_name events, want 2", meta)
	}
	if complete != 3 {
		t.Fatalf("got %d complete events, want 3", complete)
	}
	// The two overlapping worker spans must land on different lanes.
	if tids["overlap-a"] == tids["overlap-b"] {
		t.Fatalf("overlapping spans share tid %v", tids["overlap-a"])
	}
}

func TestLoggerLevelsAndFormat(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.Debug("hidden")
	l.Info("visible", String("worker", "http://w:1"), Int("misses", 3), String("state", "now dead"))
	l.Warn("also visible")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Fatalf("debug line leaked below level: %s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "level=info") || !strings.Contains(lines[0], "msg=visible") ||
		!strings.Contains(lines[0], "worker=http://w:1") || !strings.Contains(lines[0], "misses=3") ||
		!strings.Contains(lines[0], `state="now dead"`) {
		t.Fatalf("bad line format: %s", lines[0])
	}

	if NewLogger(&buf, LevelOff).Enabled(LevelError) {
		t.Fatalf("LevelOff still logs")
	}

	var nilLogger *Logger
	nilLogger.Info("safe")
	if nilLogger.Enabled(LevelError) {
		t.Fatalf("nil logger claims enabled")
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{
		"debug": LevelDebug, "INFO": LevelInfo, "warn": LevelWarn,
		"warning": LevelWarn, "error": LevelError, "off": LevelOff, " silent ": LevelOff,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Errorf("ParseLevel accepted garbage")
	}
}

func TestDefaultLogger(t *testing.T) {
	old := DefaultLogger()
	defer SetDefaultLogger(old)
	var buf bytes.Buffer
	SetDefaultLogger(NewLogger(&buf, LevelInfo))
	DefaultLogger().Info("hello")
	if !strings.Contains(buf.String(), "msg=hello") {
		t.Fatalf("default logger did not write: %q", buf.String())
	}
}

func TestNewIDUniqueness(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 10000; i++ {
		id := newID()
		if len(id) != 16 || !validID(id) {
			t.Fatalf("bad id %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}
