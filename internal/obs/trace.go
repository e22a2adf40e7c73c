// Package obs is the zero-dependency observability layer: lightweight
// distributed tracing (spans with parent links, recorded into a process-local
// ring buffer and exportable as Chrome trace_event JSON), a typed metrics
// registry with Prometheus text exposition, and a structured key=value
// logger.
//
// Everything is opt-in and nil-safe: a nil *Recorder, *Registry, *Logger, or
// *Span no-ops, so library code can call into obs unconditionally without
// paying more than a context lookup when observability is not wired up.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"strconv"
	"sync"
	"time"
)

// TraceID identifies one end-to-end operation (e.g. one mine query) across
// processes. It is 16 lowercase hex characters; the zero value means "no
// trace".
type TraceID string

// SpanID identifies one span within a trace. Same encoding as TraceID.
type SpanID string

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// String builds a string-valued Attr.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer-valued Attr.
func Int(k string, v int64) Attr { return Attr{Key: k, Value: strconv.FormatInt(v, 10)} }

// SpanRecord is the completed, serializable form of a span. Workers ship
// their records back to the coordinator inside JobResult, so the JSON shape
// is part of the control-plane contract.
type SpanRecord struct {
	Trace       TraceID `json:"trace"`
	Span        SpanID  `json:"span"`
	Parent      SpanID  `json:"parent,omitempty"`
	Name        string  `json:"name"`
	Proc        string  `json:"proc,omitempty"`
	StartUnixNS int64   `json:"start_unix_ns"`
	DurationNS  int64   `json:"duration_ns"`
	Attrs       []Attr  `json:"attrs,omitempty"`
}

// Recorder is a bounded, process-local span sink. When full it overwrites the
// oldest records (a ring), so a long-lived daemon keeps the most recent
// traces without unbounded growth.
type Recorder struct {
	proc string
	cap  int

	mu   sync.Mutex
	ring []SpanRecord
	next int // ring insertion cursor once len(ring) == cap
	full bool
	seen map[TraceID]map[SpanID]struct{} // dedupe for Import
}

// DefaultRecorderCapacity bounds a Recorder when NewRecorder is given a
// non-positive capacity.
const DefaultRecorderCapacity = 16384

// NewRecorder builds a Recorder whose records carry proc as their process
// label (used for Perfetto process lanes). capacity <= 0 selects
// DefaultRecorderCapacity.
func NewRecorder(proc string, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	return &Recorder{proc: proc, cap: capacity, seen: make(map[TraceID]map[SpanID]struct{})}
}

// Proc returns the recorder's process label.
func (r *Recorder) Proc() string {
	if r == nil {
		return ""
	}
	return r.proc
}

// Record appends one completed span record. The record's Proc defaults to
// the recorder's process label. Duplicate (trace, span) ids are dropped, so
// re-imported remote spans (e.g. from a retried attempt) appear once.
func (r *Recorder) Record(rec SpanRecord) {
	if r == nil || rec.Trace == "" || rec.Span == "" {
		return
	}
	if rec.Proc == "" {
		rec.Proc = r.proc
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	spans := r.seen[rec.Trace]
	if spans == nil {
		spans = make(map[SpanID]struct{})
		r.seen[rec.Trace] = spans
	}
	if _, dup := spans[rec.Span]; dup {
		return
	}
	spans[rec.Span] = struct{}{}
	if len(r.ring) < r.cap {
		r.ring = append(r.ring, rec)
		return
	}
	// Evict the record we overwrite from the dedupe index.
	old := r.ring[r.next]
	if s := r.seen[old.Trace]; s != nil {
		delete(s, old.Span)
		if len(s) == 0 {
			delete(r.seen, old.Trace)
		}
	}
	r.ring[r.next] = rec
	r.next = (r.next + 1) % r.cap
	r.full = true
}

// Import records a batch of remote span records, preserving their Proc
// labels. Records without ids are skipped.
func (r *Recorder) Import(recs []SpanRecord) {
	if r == nil {
		return
	}
	for _, rec := range recs {
		r.Record(rec)
	}
}

// TraceSpans returns all retained records for one trace, ordered by start
// time.
func (r *Recorder) TraceSpans(id TraceID) []SpanRecord {
	if r == nil || id == "" {
		return nil
	}
	r.mu.Lock()
	out := make([]SpanRecord, 0, 16)
	for _, rec := range r.ring {
		if rec.Trace == id {
			out = append(out, rec)
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartUnixNS != out[j].StartUnixNS {
			return out[i].StartUnixNS < out[j].StartUnixNS
		}
		return out[i].Span < out[j].Span
	})
	return out
}

// Len reports the number of retained records.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}

// Span is one in-flight timed operation. A nil *Span (returned by StartSpan
// when no Recorder is attached to the context) is valid and no-ops.
type Span struct {
	rec    *Recorder
	trace  TraceID
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	attrs  []Attr

	mu    sync.Mutex
	ended bool
}

type ctxKey int

const (
	recorderKey ctxKey = iota
	spanCtxKey
)

type spanContext struct {
	trace TraceID
	span  SpanID
}

// WithRecorder attaches a span recorder to the context. StartSpan is a no-op
// until a recorder is attached.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, recorderKey, r)
}

// RecorderFrom returns the recorder attached to ctx, or nil.
func RecorderFrom(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(recorderKey).(*Recorder)
	return r
}

// ContextWithRemote marks ctx as part of a trace started elsewhere: the next
// StartSpan joins trace with its span parented under parent. Used on the
// receiving side of an X-Seqmine-Trace header or a shuffle-handshake trace
// field.
func ContextWithRemote(ctx context.Context, trace TraceID, parent SpanID) context.Context {
	if trace == "" {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey, spanContext{trace: trace, span: parent})
}

// SpanContextFrom returns the current trace and span id carried by ctx
// (either from an enclosing StartSpan or ContextWithRemote). Both are empty
// when ctx carries no trace.
func SpanContextFrom(ctx context.Context) (TraceID, SpanID) {
	if ctx == nil {
		return "", ""
	}
	sc, _ := ctx.Value(spanCtxKey).(spanContext)
	return sc.trace, sc.span
}

// StartSpan begins a span named name. If ctx carries no Recorder it returns
// (ctx, nil) — the fast path — and the nil span's methods no-op. Otherwise
// the span joins the context's current trace (starting a fresh trace if
// there is none) and the returned context carries the new span as parent for
// nested StartSpan calls.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	rec := RecorderFrom(ctx)
	if rec == nil {
		return ctx, nil
	}
	sc, _ := ctx.Value(spanCtxKey).(spanContext)
	if sc.trace == "" {
		sc.trace = TraceID(newID())
	}
	s := &Span{
		rec:    rec,
		trace:  sc.trace,
		id:     SpanID(newID()),
		parent: sc.span,
		name:   name,
		start:  time.Now(),
		attrs:  attrs,
	}
	return context.WithValue(ctx, spanCtxKey, spanContext{trace: s.trace, span: s.id}), s
}

// Observe records an already-completed operation as a span under ctx's
// current trace/parent. It is the retroactive form of StartSpan+End, useful
// when the duration is known from existing metrics.
func Observe(ctx context.Context, name string, start time.Time, d time.Duration, attrs ...Attr) {
	rec := RecorderFrom(ctx)
	if rec == nil {
		return
	}
	trace, parent := SpanContextFrom(ctx)
	if trace == "" {
		trace = TraceID(newID())
	}
	if d < 0 {
		d = 0
	}
	rec.Record(SpanRecord{
		Trace:       trace,
		Span:        SpanID(newID()),
		Parent:      parent,
		Name:        name,
		StartUnixNS: start.UnixNano(),
		DurationNS:  int64(d),
		Attrs:       attrs,
	})
}

// TraceID returns the span's trace id ("" for a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return ""
	}
	return s.trace
}

// ID returns the span's id ("" for a nil span).
func (s *Span) ID() SpanID {
	if s == nil {
		return ""
	}
	return s.id
}

// SetAttr adds or replaces an annotation. Safe on a nil span.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == k {
			s.attrs[i].Value = v
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: k, Value: v})
}

// SetAttrInt adds or replaces an integer annotation. Safe on a nil span.
func (s *Span) SetAttrInt(k string, v int64) { s.SetAttr(k, strconv.FormatInt(v, 10)) }

// End completes the span and hands it to the recorder. Ending twice records
// once. Safe on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	s.rec.Record(SpanRecord{
		Trace:       s.trace,
		Span:        s.id,
		Parent:      s.parent,
		Name:        s.name,
		StartUnixNS: s.start.UnixNano(),
		DurationNS:  int64(time.Since(s.start)),
		Attrs:       attrs,
	})
}

// idSource hands out unique 64-bit ids. Seeded once from crypto/rand so ids
// are unique across processes; subsequent ids mix a counter through
// splitmix64, which is cheap and collision-free within a process.
var idSource struct {
	mu   sync.Mutex
	next uint64
}

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		idSource.next = binary.LittleEndian.Uint64(b[:])
	} else {
		idSource.next = uint64(time.Now().UnixNano())
	}
}

func newID() string {
	idSource.mu.Lock()
	idSource.next++
	x := idSource.next
	idSource.mu.Unlock()
	// splitmix64 finalizer: a counter in, well-distributed bits out.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1 // the zero id is reserved for "absent"
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], x)
	return hex.EncodeToString(b[:])
}

// NewSpanID mints a fresh span id for callers that assemble SpanRecords by
// hand (e.g. the transport's receive side).
func NewSpanID() SpanID { return SpanID(newID()) }
