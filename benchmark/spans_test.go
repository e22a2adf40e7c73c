package main

import (
	"math"
	"testing"

	"seqmine/internal/obs"
)

func TestSelfTimeByName(t *testing.T) {
	msec := func(v int64) int64 { return v * 1e6 }
	span := func(id, parent, name string, start, end int64) obs.SpanRecord {
		return obs.SpanRecord{Trace: "t", Span: obs.SpanID(id), Parent: obs.SpanID(parent), Name: name, StartUnixNS: msec(start), DurationNS: msec(end - start)}
	}
	spans := []obs.SpanRecord{
		span("root", "", "job", 0, 100),
		span("a", "root", "map", 10, 40),
		span("b", "root", "map", 30, 60),     // overlaps a: 10..60 is covered once
		span("c", "root", "reduce", 90, 120), // reaches past its parent: only 90..100 counts
		span("d", "c", "merge", 95, 105),
	}
	got := selfTimeByName(spans, 2)
	want := map[string]float64{
		"job":    (100 - 50 - 10) / 2.0,
		"map":    (30 + 30) / 2.0,
		"reduce": (30 - 10) / 2.0,
		"merge":  10 / 2.0,
	}
	if len(got) != len(want) {
		t.Fatalf("selfTimeByName = %v, want %v", got, want)
	}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("self time of %s = %v ms/job, want %v", name, got[name], w)
		}
	}
}
