package obs

import (
	"context"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestRecorderProc(t *testing.T) {
	if got := NewRecorder("w1", 0).Proc(); got != "w1" {
		t.Errorf("Proc() = %q, want w1", got)
	}
	var nilRec *Recorder
	if got := nilRec.Proc(); got != "" {
		t.Errorf("nil Proc() = %q, want empty", got)
	}
	nilRec.Import([]SpanRecord{{Trace: "a", Span: "b"}}) // must not panic
	if nilRec.TraceSpans("a") != nil {
		t.Error("nil recorder returned spans")
	}
	if nilRec.Len() != 0 {
		t.Error("nil recorder has non-zero Len")
	}
}

func TestNewIDsAreValid(t *testing.T) {
	tr, sp := NewTraceID(), NewSpanID()
	if !validID(string(tr)) || !validID(string(sp)) {
		t.Errorf("minted ids %q/%q are not 16 lowercase hex chars", tr, sp)
	}
}

func TestWithRecorderNilAndRemoteContext(t *testing.T) {
	ctx := context.Background()
	if WithRecorder(ctx, nil) != ctx {
		t.Error("WithRecorder(nil) should return the context unchanged")
	}
	if RecorderFrom(nil) != nil {
		t.Error("RecorderFrom(nil ctx) should be nil")
	}
	if tr, sp := SpanContextFrom(nil); tr != "" || sp != "" {
		t.Error("SpanContextFrom(nil ctx) should be empty")
	}
	if ContextWithRemote(ctx, "", "ffffffffffffffff") != ctx {
		t.Error("ContextWithRemote with no trace should return the context unchanged")
	}

	parent := NewSpanID()
	joined := ContextWithRemote(ctx, "00000000000000ff", parent)
	if tr, sp := SpanContextFrom(joined); tr != "00000000000000ff" || sp != parent {
		t.Errorf("SpanContextFrom = %q/%q after ContextWithRemote", tr, sp)
	}
}

func TestObserveWithoutRecorderAndNegativeDuration(t *testing.T) {
	Observe(context.Background(), "noop", time.Now(), time.Second) // no recorder: no-op

	rec := NewRecorder("p", 4)
	ctx := WithRecorder(context.Background(), rec)
	// No enclosing span: Observe must mint a fresh trace and clamp d at 0.
	Observe(ctx, "fresh", time.Now(), -time.Second)
	if rec.Len() != 1 {
		t.Fatalf("recorded %d spans, want 1", rec.Len())
	}
}

func TestSpanSetAttrReplaces(t *testing.T) {
	rec := NewRecorder("p", 4)
	ctx := WithRecorder(context.Background(), rec)
	_, s := StartSpan(ctx, "op", String("k", "v1"))
	s.SetAttr("k", "v2")
	s.SetAttrInt("n", 7)
	s.End()
	got := rec.TraceSpans(s.TraceID())
	if len(got) != 1 {
		t.Fatalf("spans = %d, want 1", len(got))
	}
	attrs := map[string]string{}
	for _, a := range got[0].Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["k"] != "v2" || attrs["n"] != "7" {
		t.Errorf("attrs = %v, want k=v2 n=7", attrs)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	var nilReg *Registry
	if nilReg.Snapshot() != nil {
		t.Error("nil registry Snapshot should be nil")
	}

	r := NewRegistry()
	r.Counter("snap_total", "c", "algo", "dseq").Add(3)
	r.Gauge("snap_gauge", "g").Set(-2)
	h := r.Histogram("snap_seconds", "h", nil)
	h.Observe(0.5)
	h.Observe(1.5)

	entries := r.Snapshot()
	byName := map[string]SnapshotEntry{}
	for _, e := range entries {
		byName[e.Name] = e
	}
	if e := byName["snap_total"]; e.Type != "counter" || e.Value != 3 || e.Labels["algo"] != "dseq" {
		t.Errorf("snap_total entry = %+v", e)
	}
	if e := byName["snap_gauge"]; e.Type != "gauge" || e.Value != -2 || e.Labels != nil {
		t.Errorf("snap_gauge entry = %+v", e)
	}
	if e := byName["snap_seconds"]; e.Type != "histogram" || e.Value != 2 || e.Sum != 2.0 {
		t.Errorf("snap_seconds entry = %+v", e)
	}
}

func TestNilInstrumentsNoop(t *testing.T) {
	var c *Counter
	c.Add(1)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var g *Gauge
	g.Set(5)
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram has samples")
	}

	// Invalid names/labels return nil instruments rather than panicking.
	r := NewRegistry()
	if r.Histogram("bad name", "h", nil) != nil {
		t.Error("invalid metric name should yield a nil histogram")
	}
	if r.Counter("ok_total", "c", "bad-label", "v") != nil {
		t.Error("invalid label name should yield a nil counter")
	}
}

func TestTraceHeaderFormatting(t *testing.T) {
	if got := FormatTraceHeader("", "ffffffffffffffff"); got != "" {
		t.Errorf("FormatTraceHeader with no trace = %q", got)
	}
	if got := FormatTraceHeader("00000000000000ab", ""); got != "00000000000000ab" {
		t.Errorf("FormatTraceHeader without parent = %q", got)
	}

	h := http.Header{}
	InjectHeader(context.Background(), h) // no trace: header untouched
	if h.Get(TraceHeader) != "" {
		t.Error("InjectHeader stamped a header without a trace")
	}
	ctx := ContextWithRemote(context.Background(), "00000000000000ab", "00000000000000cd")
	InjectHeader(ctx, h)
	if got := h.Get(TraceHeader); got != "00000000000000ab-00000000000000cd" {
		t.Errorf("injected header = %q", got)
	}

	bad := http.Header{}
	bad.Set(TraceHeader, "not a trace")
	base := context.Background()
	if ExtractHeader(base, bad) != base {
		t.Error("ExtractHeader with a malformed header should return the context unchanged")
	}
}

func TestTraceBytesEdgeCases(t *testing.T) {
	if TraceBytes(context.Background()) != nil {
		t.Error("TraceBytes without a trace should be nil")
	}
	// A remote trace id that is not 16 hex chars cannot be rendered.
	if b := TraceBytes(ContextWithRemote(context.Background(), "zz", "")); b != nil {
		t.Errorf("TraceBytes with a malformed trace id = %x", b)
	}
	// A missing parent encodes as eight zero bytes and round-trips as absent.
	b := TraceBytes(ContextWithRemote(context.Background(), "00000000000000ab", ""))
	if len(b) != 16 {
		t.Fatalf("wire form is %d bytes, want 16", len(b))
	}
	tr, sp, ok := ParseTraceBytes(b)
	if !ok || tr != "00000000000000ab" || sp != "" {
		t.Errorf("ParseTraceBytes = %q/%q/%v", tr, sp, ok)
	}
	if _, _, ok := ParseTraceBytes(make([]byte, 16)); ok {
		t.Error("all-zero trace bytes should not parse")
	}
}

func TestLevelString(t *testing.T) {
	for lvl, want := range map[Level]string{
		LevelDebug: "debug", LevelInfo: "info", LevelWarn: "warn",
		LevelError: "error", LevelOff: "off",
	} {
		if got := lvl.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", lvl, got, want)
		}
	}
}

func TestQuoteValue(t *testing.T) {
	for in, want := range map[string]string{
		"":         `""`,
		"plain":    "plain",
		"a b":      `"a b"`,
		`say "hi"`: `"say \"hi\""`,
		"k=v":      `"k=v"`,
	} {
		if got := quoteValue(in); got != want {
			t.Errorf("quoteValue(%q) = %s, want %s", in, got, want)
		}
	}
}

func TestFormatFloatAndPromFloat(t *testing.T) {
	if got := formatFloat(math.Inf(1)); got != "+Inf" {
		t.Errorf("formatFloat(+Inf) = %q", got)
	}
	if got := formatFloat(math.Inf(-1)); got != "-Inf" {
		t.Errorf("formatFloat(-Inf) = %q", got)
	}
	for _, v := range []string{"+Inf", "Inf", "-Inf", "NaN", "nan", "2.5"} {
		if _, err := parsePromFloat(v); err != nil {
			t.Errorf("parsePromFloat(%q): %v", v, err)
		}
	}
	if _, err := parsePromFloat("xyz"); err == nil {
		t.Error("parsePromFloat should reject non-numeric values")
	}
}

func TestValidateExpositionCommentErrors(t *testing.T) {
	for name, expo := range map[string]string{
		"malformed HELP":     "# HELP !bad help text\nok_total 1\n",
		"malformed TYPE":     "# TYPE only_two\n",
		"bad TYPE name":      "# TYPE !bad counter\n",
		"unknown type":       "# TYPE ok_total exotic\n",
		"duplicate TYPE":     "# TYPE ok_total counter\n# TYPE ok_total counter\n",
		"TYPE after samples": "ok_total 1\n# TYPE ok_total counter\n",
	} {
		if _, err := ValidateExposition(strings.NewReader(expo)); err == nil {
			t.Errorf("%s: expected a validation error", name)
		}
	}
	// Free-form comments are fine.
	if _, err := ValidateExposition(strings.NewReader("# just a note\nok_total 1\n")); err != nil {
		t.Errorf("free-form comment rejected: %v", err)
	}
}

func TestChromeTraceUnknownProc(t *testing.T) {
	buf, err := ChromeTrace([]SpanRecord{{
		Trace: "00000000000000ab", Span: "00000000000000cd",
		Name: "op", StartUnixNS: 10, DurationNS: 5,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), `"unknown"`) {
		t.Errorf("spans without a Proc label should land in an \"unknown\" process: %s", buf)
	}
}

// NewTraceID mints a fresh trace id.
func NewTraceID() TraceID { return TraceID(newID()) }
