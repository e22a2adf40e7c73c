package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a typed metrics registry. Instruments are get-or-create: the
// same (name, label set) always returns the same instrument, so callers can
// resolve instruments at construction time or look them up on the fly.
//
// A nil *Registry returns nil instruments whose methods no-op, so library
// code can be instrumented unconditionally.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // family registration order, for stable exposition
}

type family struct {
	name    string
	help    string
	typ     string // "counter" | "gauge" | "histogram"
	buckets []float64
	series  map[string]*series
	order   []string
}

type series struct {
	labels []Attr
	inst   any
}

// NewRegistry builds an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one. Safe on nil.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored; counters are monotonic). Safe on
// nil.
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an integer metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value. Safe on nil.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by n. Safe on nil.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram over float64 samples.
type Histogram struct {
	buckets []float64 // upper bounds, sorted ascending; +Inf is implicit
	counts  []atomic.Int64
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one sample. Safe on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound admits v; sort.SearchFloat64s gives the
	// insertion point, which is exactly the cumulative bucket index.
	i := sort.SearchFloat64s(h.buckets, v)
	if i < len(h.buckets) {
		h.counts[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of samples (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of samples (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// DurationBuckets is the default bucket set for latency histograms, in
// seconds: 1ms … 60s, roughly geometric.
var DurationBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.25, 1, 2.5, 10, 60}

// ByteBuckets is the default bucket set for size histograms, in bytes:
// 4 KiB … 256 MiB, geometric by 8x.
var ByteBuckets = []float64{4096, 32768, 262144, 2097152, 16777216, 134217728, 268435456}

// Counter returns (creating if needed) the counter name with the given
// label pairs ("k1", "v1", "k2", "v2", ...).
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	s := r.instrument(name, help, "counter", nil, labels)
	if s == nil {
		return nil
	}
	return s.inst.(*Counter)
}

// Gauge returns (creating if needed) the gauge name with the given label
// pairs.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	s := r.instrument(name, help, "gauge", nil, labels)
	if s == nil {
		return nil
	}
	return s.inst.(*Gauge)
}

// Histogram returns (creating if needed) the histogram name with fixed
// export buckets and the given label pairs. All series of one histogram
// family share the bucket layout of the first registration.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = DurationBuckets
	}
	s := r.instrument(name, help, "histogram", buckets, labels)
	if s == nil {
		return nil
	}
	return s.inst.(*Histogram)
}

func (r *Registry) instrument(name, help, typ string, buckets []float64, labels []string) *series {
	if !validMetricName(name) || len(labels)%2 != 0 {
		return nil
	}
	var buf [128]byte
	key, ok := appendSeriesKey(buf[:0], labels)
	if !ok {
		return nil
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		bs := make([]float64, len(buckets))
		copy(bs, buckets)
		sort.Float64s(bs)
		f = &family{name: name, help: help, typ: typ, buckets: bs, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		return nil // type conflict: refuse rather than corrupt the exposition
	}
	s := f.series[string(key)] // a lookup that converts key allocates nothing
	if s == nil {
		attrs := make([]Attr, 0, len(labels)/2)
		for i := 0; i < len(labels); i += 2 {
			attrs = append(attrs, Attr{Key: labels[i], Value: labels[i+1]})
		}
		sort.Slice(attrs, func(i, j int) bool { return attrs[i].Key < attrs[j].Key })
		s = &series{labels: attrs}
		switch typ {
		case "counter":
			s.inst = &Counter{}
		case "gauge":
			s.inst = &Gauge{}
		case "histogram":
			h := &Histogram{buckets: f.buckets}
			h.counts = make([]atomic.Int64, len(f.buckets))
			s.inst = h
		}
		f.series[string(key)] = s
		f.order = append(f.order, string(key))
	}
	return s
}

// appendSeriesKey appends the key of the series of the given label pairs to
// buf — key="value", pairs in key order — or reports a label name that is not
// valid. It allocates nothing while buf has room and the pairs are at most 8,
// so the lookup of an existing series does not allocate.
func appendSeriesKey(buf []byte, labels []string) ([]byte, bool) {
	order := make([]int, 0, 8) // the pairs' indexes in key order, by insertion
	for i := 0; i < len(labels); i += 2 {
		if !validLabelName(labels[i]) {
			return nil, false
		}
		j := len(order)
		order = append(order, i)
		for ; j > 0 && labels[order[j-1]] > labels[i]; j-- {
			order[j] = order[j-1]
		}
		order[j] = i
	}
	for _, i := range order {
		buf = append(buf, labels[i]...)
		buf = append(buf, '=')
		buf = strconv.AppendQuote(buf, labels[i+1])
		buf = append(buf, ',')
	}
	return buf, true
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// SnapshotEntry is one metric series in JSON form, for endpoints that keep a
// JSON default alongside the Prometheus exposition.
type SnapshotEntry struct {
	Name   string            `json:"name"`
	Type   string            `json:"type"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value is the counter/gauge value; for histograms it is the sample count.
	Value int64 `json:"value"`
	// Sum is the histogram sample sum (absent otherwise).
	Sum float64 `json:"sum,omitempty"`
}

// Snapshot returns every series' current value under the same lock the
// Prometheus exposition takes, so one read is internally consistent.
func (r *Registry) Snapshot() []SnapshotEntry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []SnapshotEntry
	for _, name := range r.order {
		f := r.families[name]
		for _, key := range f.order {
			s := f.series[key]
			e := SnapshotEntry{Name: name, Type: f.typ}
			if len(s.labels) > 0 {
				e.Labels = make(map[string]string, len(s.labels))
				for _, a := range s.labels {
					e.Labels[a.Key] = a.Value
				}
			}
			switch inst := s.inst.(type) {
			case *Counter:
				e.Value = inst.Value()
			case *Gauge:
				e.Value = inst.Value()
			case *Histogram:
				e.Value = inst.Count()
				e.Sum = inst.Sum()
			}
			out = append(out, e)
		}
	}
	return out
}

// WritePrometheus renders the registry in Prometheus text exposition format
// (version 0.0.4). Families appear in registration order, series in
// creation order; histogram series expand to _bucket/_sum/_count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, name := range r.order {
		f := r.families[name]
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, key := range f.order {
			s := f.series[key]
			switch inst := s.inst.(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, renderLabels(s.labels, "", ""), inst.Value())
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, renderLabels(s.labels, "", ""), inst.Value())
			case *Histogram:
				var cum int64
				for i, ub := range inst.buckets {
					cum += inst.counts[i].Load()
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
						renderLabels(s.labels, "le", formatFloat(ub)), cum)
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
					renderLabels(s.labels, "le", "+Inf"), inst.Count())
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name,
					renderLabels(s.labels, "", ""), formatFloat(inst.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name,
					renderLabels(s.labels, "", ""), inst.Count())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func renderLabels(attrs []Attr, extraKey, extraVal string) string {
	if len(attrs) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, a := range attrs {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(a.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(a.Value))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if !first {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
