package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"seqmine/internal/obs"
)

// Admission control is the overload front door of the serving tier. Instead
// of spawning an unbounded goroutine per request, at most MaxInFlight queries
// mine at once, at most QueueDepth more wait for a slot, and everything past
// that is shed immediately with an OverloadError carrying a Retry-After hint
// — the HTTP layer turns it into 429 + Retry-After. Per-tenant in-flight
// quotas are enforced at the same gate, before a query may occupy queue
// space, so one tenant cannot starve the shared queue.

// OverloadError reports a shed query: the admission queue (or a tenant
// quota) is full. The HTTP layer maps it to 429 Too Many Requests with a
// Retry-After header.
type OverloadError struct {
	// Reason is "queue_full" or "tenant_quota".
	Reason string
	// RetryAfter is the suggested backoff before retrying.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("service overloaded (%s): retry after %s", e.Reason, e.RetryAfter)
}

// IsOverload reports whether err is a shed-query error and returns it.
func IsOverload(err error) (*OverloadError, bool) {
	var oe *OverloadError
	if errors.As(err, &oe) {
		return oe, true
	}
	return nil, false
}

// admission is the bounded admission queue. The zero configuration
// (maxInFlight == 0) admits everything and never queues or sheds, keeping
// the pre-admission-control behavior for library users who configured no
// bounds.
type admission struct {
	slots      chan struct{} // nil = unbounded
	queueDepth int

	mu         sync.Mutex
	queued     int           // queries waiting for a slot
	avgServeNS float64       // EWMA of query service time, for Retry-After
	minRetry   time.Duration // floor of the Retry-After hint

	// The gate's account: its registry instruments.
	inflightGauge  *obs.Gauge
	queueGauge     *obs.Gauge
	queueMaxGauge  *obs.Gauge
	waitHist       *obs.Histogram
	admittedCtr    *obs.Counter
	shedQueueCtr   *obs.Counter
	shedTenantCtr  *obs.Counter
	retryAfterHist *obs.Histogram
}

// newAdmission builds the controller. maxInFlight <= 0 disables bounding
// (and with it queueing and shedding); queueDepth <= 0 with a bound means no
// waiting room — a query either gets a slot immediately or is shed.
func newAdmission(maxInFlight, queueDepth int, reg *obs.Registry) *admission {
	a := &admission{
		queueDepth: queueDepth,
		minRetry:   time.Second,

		inflightGauge:  reg.Gauge("seqmine_admission_inflight", "Queries currently holding a mining slot."),
		queueGauge:     reg.Gauge("seqmine_admission_queue_depth", "Queries currently waiting for a mining slot."),
		queueMaxGauge:  reg.Gauge("seqmine_admission_queue_depth_max", "High watermark of the admission queue depth."),
		waitHist:       reg.Histogram("seqmine_admission_wait_seconds", "Time admitted queries spent waiting for a mining slot.", obs.DurationBuckets),
		admittedCtr:    reg.Counter("seqmine_admission_admitted_total", "Queries admitted to mine."),
		shedQueueCtr:   reg.Counter("seqmine_admission_shed_total", "Queries shed with 429.", "reason", "queue_full"),
		shedTenantCtr:  reg.Counter("seqmine_admission_shed_total", "Queries shed with 429.", "reason", "tenant_quota"),
		retryAfterHist: reg.Histogram("seqmine_admission_retry_after_seconds", "Retry-After hints attached to shed queries.", obs.DurationBuckets),
	}
	if maxInFlight > 0 {
		a.slots = make(chan struct{}, maxInFlight)
		if queueDepth < 0 {
			a.queueDepth = 0
		}
	}
	return a
}

// acquire admits one query, blocking in the bounded queue when all slots are
// busy. It returns a release func on admission and an *OverloadError when the
// query is shed (tenant quota exceeded, queue full, or ctx done while
// queued — context errors are returned as-is). The tenant slot is charged
// first so a tenant at its quota is shed without occupying queue space.
func (a *admission) acquire(ctx context.Context, tenant *Tenant) (func(), error) {
	if !tenant.acquire() {
		oe := a.shed("tenant_quota")
		a.shedTenantCtr.Inc()
		return nil, oe
	}
	releaseTenant := tenant.release

	if a.slots == nil {
		a.admit(0)
		return func() { releaseTenant() }, nil
	}

	// Fast path: a slot is free right now.
	select {
	case a.slots <- struct{}{}:
		a.admit(0)
		return a.releaser(releaseTenant), nil
	default:
	}

	// Queue, bounded.
	a.mu.Lock()
	if a.queued >= a.queueDepth {
		a.mu.Unlock()
		releaseTenant()
		a.shedQueueCtr.Inc()
		return nil, a.shed("queue_full")
	}
	a.queued++
	if int64(a.queued) > a.queueMaxGauge.Value() {
		a.queueMaxGauge.Set(int64(a.queued))
	}
	a.queueGauge.Set(int64(a.queued))
	a.mu.Unlock()

	start := time.Now()
	var err error
	select {
	case a.slots <- struct{}{}:
	case <-ctx.Done():
		err = ctx.Err()
	}
	a.mu.Lock()
	a.queued--
	a.queueGauge.Set(int64(a.queued))
	a.mu.Unlock()
	if err != nil {
		releaseTenant()
		return nil, err
	}
	a.admit(time.Since(start))
	return a.releaser(releaseTenant), nil
}

func (a *admission) releaser(releaseTenant func()) func() {
	return func() {
		<-a.slots
		releaseTenant()
	}
}

func (a *admission) admit(waited time.Duration) {
	a.admittedCtr.Inc()
	a.inflightGauge.Add(1)
	a.waitHist.Observe(waited.Seconds())
}

// done records a finished query's service time into the EWMA that prices
// Retry-After hints, and drops the in-flight gauge.
func (a *admission) done(served time.Duration) {
	a.inflightGauge.Add(-1)
	a.mu.Lock()
	if a.avgServeNS == 0 {
		a.avgServeNS = float64(served)
	} else {
		a.avgServeNS = 0.8*a.avgServeNS + 0.2*float64(served)
	}
	a.mu.Unlock()
}

// shed builds the overload error. The Retry-After hint estimates when a slot
// should free up: the average service time scaled by how many queries are
// already committed ahead of a retry, floored at one second and rounded up to
// whole seconds (the HTTP header's granularity).
func (a *admission) shed(reason string) *OverloadError {
	a.mu.Lock()
	avg := time.Duration(a.avgServeNS)
	waiting := a.queued
	a.mu.Unlock()
	capacity := 1
	if a.slots != nil {
		capacity = cap(a.slots)
	}
	retry := time.Duration(float64(avg) * float64(waiting+1) / float64(capacity))
	if retry < a.minRetry {
		retry = a.minRetry
	}
	retry = time.Duration(math.Ceil(retry.Seconds())) * time.Second
	a.retryAfterHist.Observe(retry.Seconds())
	return &OverloadError{Reason: reason, RetryAfter: retry}
}

// admissionStats is the point-in-time accounting of the admission gate: its
// bounds and queue, and its counts as the registry holds them.
type admissionStats struct {
	MaxInFlight   int   `json:"max_inflight"`
	QueueDepth    int   `json:"queue_depth"`
	Queued        int   `json:"queued"`
	QueuedMax     int   `json:"queued_max"`
	Admitted      int64 `json:"admitted"`
	ShedQueueFull int64 `json:"shed_queue_full"`
	ShedTenant    int64 `json:"shed_tenant_quota"`
}

func (a *admission) stats() admissionStats {
	a.mu.Lock()
	queued := a.queued
	a.mu.Unlock()
	s := admissionStats{
		QueueDepth:    a.queueDepth,
		Queued:        queued,
		QueuedMax:     int(a.queueMaxGauge.Value()),
		Admitted:      a.admittedCtr.Value(),
		ShedQueueFull: a.shedQueueCtr.Value(),
		ShedTenant:    a.shedTenantCtr.Value(),
	}
	if a.slots != nil {
		s.MaxInFlight = cap(a.slots)
	}
	return s
}
