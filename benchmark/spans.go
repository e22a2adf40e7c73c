package main

import (
	"os"
	"path/filepath"
	"sort"

	"seqmine/internal/obs"
)

// collectSpans returns every span of the traced jobs: each job is its own
// trace, rooted at the benchmark's span around the call.
func collectSpans(rec *obs.Recorder, jobs []*jobResult) []obs.SpanRecord {
	var spans []obs.SpanRecord
	for _, r := range jobs {
		spans = append(spans, rec.TraceSpans(r.Trace)...)
	}
	return spans
}

// selfTimeByName sums, per span name, each span's self time — its duration
// minus the part of that interval its child spans cover — and divides by the
// number of jobs, in ms. Children that overlap each other (parallel workers)
// are counted once, and a child reaching outside its parent only counts for
// the part inside.
func selfTimeByName(spans []obs.SpanRecord, jobs int) map[string]float64 {
	type interval struct{ lo, hi int64 }
	children := make(map[obs.SpanID][]interval, len(spans))
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], interval{s.StartUnixNS, s.StartUnixNS + s.DurationNS})
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		lo, hi := s.StartUnixNS, s.StartUnixNS+s.DurationNS
		kids := children[s.Span]
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
		covered, at := int64(0), lo
		for _, k := range kids {
			if k.lo < at {
				k.lo = at
			}
			if k.hi > hi {
				k.hi = hi
			}
			if k.hi > k.lo {
				covered += k.hi - k.lo
				at = k.hi
			}
		}
		out[s.Name] += float64(s.DurationNS-covered) / 1e6 / float64(jobs)
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) and chrome://tracing.
func writeChromeTrace(dir, workload string, spans []obs.SpanRecord) error {
	buf, err := obs.ChromeTrace(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), buf, 0o644)
}
