// Package obs is the toolchain's observability layer: a lightweight,
// allocation-conscious metrics registry (counters, gauges, histograms with
// fixed bucket layouts), span-style scoped timers, and labelled event
// timelines. A registry's Snapshot is written with WriteDoc like every
// other document.
//
// The paper's entire argument rests on measurement — page faults per
// section, profiling overhead, cross-build match rates (Secs. 5 and 7) — so
// every subsystem reports here: the image builder times its pipeline
// stages, the OS simulator records a time-ordered fault timeline, the
// profiler counts probes and dumped bytes, the matcher reports per-strategy
// match/collision rates, and the interpreter reports its instruction mix.
//
// Detached operation is free by design: a nil *Registry is the "nothing
// observed" state. Every constructor and recording method is nil-safe and
// returns/accepts nil handles, so instrumentation sites compile down to a
// nil check when observability is off — the Tier-1 benchmarks run with a
// nil registry and measure no difference (see TestDetachedPathAllocates-
// Nothing for the enforced allocation bound).
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SchemaVersion tags every serialized snapshot so future readers can detect
// layout changes.
const SchemaVersion = "nimage.obs/v1"

// Registry holds the live metrics of one observed activity (an image build,
// a profiling run, one cold start). A nil *Registry is valid and records
// nothing at zero cost.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram
	timelines map[string]*Timeline
	spans     []SpanPoint
	seq       atomic.Int64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		hists:     make(map[string]*Histogram),
		timelines: make(map[string]*Timeline),
	}
}

// Enabled reports whether the registry records anything. Instrumentation
// sites that need more than a handle lookup should guard on it.
func (r *Registry) Enabled() bool { return r != nil }

// nextSeq returns the next value of the registry-global event sequence,
// which orders spans and timeline events relative to each other.
func (r *Registry) nextSeq() int64 { return r.seq.Add(1) }

// Counter returns (registering on first use) the named counter, or nil when
// the registry is detached.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge, or nil when the
// registry is detached.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram with the
// given fixed bucket upper bounds (ascending; an implicit +Inf bucket is
// appended), or nil when the registry is detached. A histogram keeps the
// bounds of its first registration.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Timeline returns (registering on first use) the named event timeline with
// the given value-column names, or nil when the registry is detached. A
// timeline keeps the fields of its first registration.
func (r *Registry) Timeline(name string, fields ...string) *Timeline {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.timelines[name]
	if t == nil {
		// Copy fields so the variadic argument never escapes: detached
		// call sites must stay allocation-free.
		t = &Timeline{r: r, fields: append([]string(nil), fields...)}
		r.timelines[name] = t
	}
	return t
}

// Counter is a monotonically increasing int64 metric. Nil-safe.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value float64 metric. Nil-safe.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket-layout distribution metric: observation v is
// counted in the first bucket whose upper bound satisfies v <= bound, or in
// the implicit overflow bucket. Nil-safe.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: v <= bound bucket
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed values
// by linear interpolation inside the bucket containing the rank, the
// Prometheus histogram_quantile estimator. Returns NaN when empty; the
// overflow bucket clamps to the highest bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return histQuantile(h.bounds, counts, total, q)
}

// Quantile estimates the q-quantile of a snapshotted histogram, with the
// same interpolation as Histogram.Quantile.
func (p HistogramPoint) Quantile(q float64) float64 {
	return histQuantile(p.Bounds, p.Counts, p.Count, q)
}

// histQuantile walks cumulative bucket counts to the bucket holding rank
// q*total and interpolates linearly between the bucket's bounds. Buckets
// are (lower, upper] with an implicit lower bound of 0 for the first —
// the histograms here record non-negative quantities (nanos, pages).
func histQuantile(bounds []float64, counts []int64, total int64, q float64) float64 {
	if total <= 0 || len(counts) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(bounds) {
			// Overflow bucket: no upper bound to interpolate toward.
			if len(bounds) == 0 {
				return math.NaN()
			}
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		frac := (rank - prev) / float64(c)
		if frac < 0 {
			frac = 0
		}
		return lo + (hi-lo)*frac
	}
	if len(bounds) == 0 {
		return math.NaN()
	}
	return bounds[len(bounds)-1]
}

// Span is a scoped timer started by StartSpan and completed by End. The
// zero Span (from a detached registry) is valid and free.
type Span struct {
	r     *Registry
	name  string
	seq   int64
	start time.Time
}

// StartSpan begins a named scoped timer. On a detached registry this
// returns the zero Span without reading the clock.
func (r *Registry) StartSpan(name string) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, name: name, seq: r.nextSeq(), start: time.Now()}
}

// End completes the span, recording its wall-clock duration, and returns
// that duration (0 for the zero Span).
func (s Span) End() time.Duration {
	if s.r == nil {
		return 0
	}
	d := time.Since(s.start)
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, SpanPoint{Seq: s.seq, Name: s.name, DurationNanos: d.Nanoseconds()})
	s.r.mu.Unlock()
	return d
}

// Timeline is an append-only stream of labelled events with fixed int64
// value columns — e.g. the per-section page-fault timeline of a run, which
// turns the static Fig. 6 grid into a time-ordered fault plot. Nil-safe.
type Timeline struct {
	r      *Registry
	fields []string
	mu     sync.Mutex
	events []TimelineEvent
}

// TimelineEvent is one recorded event. Values parallel the timeline's
// field names.
type TimelineEvent struct {
	Seq    int64   `json:"seq"`
	Label  string  `json:"label"`
	Values []int64 `json:"values"`
}

// Record appends one event with the given label and column values.
func (t *Timeline) Record(label string, values ...int64) {
	if t == nil {
		return
	}
	vs := make([]int64, len(values))
	copy(vs, values)
	ev := TimelineEvent{Seq: t.r.nextSeq(), Label: label, Values: vs}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Len returns the number of recorded events (0 for nil).
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Snapshot point types: the serializable, order-stable view of a registry.
type (
	// CounterPoint is one counter's snapshot.
	CounterPoint struct {
		Name  string `json:"name"`
		Value int64  `json:"value"`
	}
	// GaugePoint is one gauge's snapshot.
	GaugePoint struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
	}
	// HistogramPoint is one histogram's snapshot: Counts has one entry per
	// bound plus the trailing overflow bucket.
	HistogramPoint struct {
		Name   string    `json:"name"`
		Bounds []float64 `json:"bounds"`
		Counts []int64   `json:"counts"`
		Count  int64     `json:"count"`
		Sum    float64   `json:"sum"`
	}
	// SpanPoint is one completed span.
	SpanPoint struct {
		Seq           int64  `json:"seq"`
		Name          string `json:"name"`
		DurationNanos int64  `json:"duration_nanos"`
	}
	// TimelinePoint is one timeline with all its events in sequence order.
	TimelinePoint struct {
		Name   string          `json:"name"`
		Fields []string        `json:"fields"`
		Events []TimelineEvent `json:"events"`
	}
)

// Snapshot is a point-in-time copy of a registry, sorted deterministically
// (metrics by name, spans and events by sequence).
type Snapshot struct {
	Schema     string           `json:"schema"`
	Counters   []CounterPoint   `json:"counters,omitempty"`
	Gauges     []GaugePoint     `json:"gauges,omitempty"`
	Histograms []HistogramPoint `json:"histograms,omitempty"`
	Spans      []SpanPoint      `json:"spans,omitempty"`
	Timelines  []TimelinePoint  `json:"timelines,omitempty"`
}

// Counter returns the named counter value from the snapshot (0 if absent).
func (s *Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the named gauge value from the snapshot (0 if absent).
func (s *Snapshot) Gauge(name string) float64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Span returns the named span's duration (the first occurrence) and whether
// it was found.
func (s *Snapshot) Span(name string) (time.Duration, bool) {
	for _, sp := range s.Spans {
		if sp.Name == name {
			return time.Duration(sp.DurationNanos), true
		}
	}
	return 0, false
}

// Timeline returns the named timeline point, or nil.
func (s *Snapshot) Timeline(name string) *TimelinePoint {
	for i := range s.Timelines {
		if s.Timelines[i].Name == name {
			return &s.Timelines[i]
		}
	}
	return nil
}

// Snapshot copies the registry's current state. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{Schema: SchemaVersion}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		snap.Counters = append(snap.Counters, CounterPoint{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		snap.Gauges = append(snap.Gauges, GaugePoint{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		hp := HistogramPoint{
			Name:   name,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Count:  h.Count(),
			Sum:    h.Sum(),
		}
		for i := range h.counts {
			hp.Counts[i] = h.counts[i].Load()
		}
		snap.Histograms = append(snap.Histograms, hp)
	}
	for name, t := range r.timelines {
		t.mu.Lock()
		tp := TimelinePoint{
			Name:   name,
			Fields: append([]string(nil), t.fields...),
			Events: append([]TimelineEvent(nil), t.events...),
		}
		t.mu.Unlock()
		sort.Slice(tp.Events, func(i, j int) bool { return tp.Events[i].Seq < tp.Events[j].Seq })
		snap.Timelines = append(snap.Timelines, tp)
	}
	snap.Spans = append(snap.Spans, r.spans...)
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	sort.Slice(snap.Spans, func(i, j int) bool { return snap.Spans[i].Seq < snap.Spans[j].Seq })
	sort.Slice(snap.Timelines, func(i, j int) bool { return snap.Timelines[i].Name < snap.Timelines[j].Name })
	return snap
}

// DurationBuckets is the fixed bucket layout for durations, in nanoseconds
// (1µs … 10s, decades).
func DurationBuckets() []float64 {
	return []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}
}

// LatencyBuckets is the fine-grained bucket layout for request latencies
// in nanoseconds (1µs … 1s, 1-2-5 steps) — decade buckets are too coarse
// for p99 interpolation over serve-mode bursts.
func LatencyBuckets() []float64 {
	return []float64{
		1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5,
		1e6, 2e6, 5e6, 1e7, 2e7, 5e7, 1e8, 2e8, 5e8, 1e9,
	}
}
