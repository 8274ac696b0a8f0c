package obs

// Per-request serve telemetry: a bounded streaming recorder for the
// request traces of the serve-mode harness. Each record carries the
// request's stream, burst and route, its queue-wait vs service split on
// the simulated server clock, and the fault traffic it incurred — the
// raw material of the per-stream Chrome trace export. The recorder is
// bounded: past the limit it counts drops instead of growing, so an
// unexpectedly long run degrades to summary statistics rather than
// unbounded memory.

import (
	"fmt"
	"io"
)

// RequestTraceSchema versions the serialized request-trace document.
const RequestTraceSchema = "nimage.reqtrace/v1"

// DefaultTraceLimit bounds a recorder whose creator did not choose a
// capacity.
const DefaultTraceLimit = 8192

// Decode-side hard bounds: documents beyond these are rejected rather
// than trusted (the recorder never emits them; a hostile file might).
const (
	maxDecodeRecords = 1 << 22
	maxDecodeMarks   = 1 << 20
	maxDecodeStreams = 1 << 16
)

// RequestRecord is the telemetry of one served request.
type RequestRecord struct {
	// ID is the request's global arrival ordinal; Stream the closed-loop
	// client stream that issued it; Burst the burst it belongs to; Route
	// the dispatch route it hit.
	ID     int `json:"id"`
	Stream int `json:"stream"`
	Burst  int `json:"burst"`
	Route  int `json:"route"`
	// StartNanos is the request's arrival on the simulated server clock
	// (CPU nanos + accumulated fault I/O). QueueNanos is the wait until
	// service began (0 for a single stream), ServiceNanos the service
	// time (CPU delta plus fault I/O delta), and LatencyNanos their sum —
	// what the client observes.
	StartNanos   float64 `json:"start_nanos"`
	QueueNanos   float64 `json:"queue_nanos"`
	ServiceNanos float64 `json:"service_nanos"`
	LatencyNanos float64 `json:"latency_nanos"`
	// Steps counts the vm instructions the request executed; the fault
	// counters are the mapping deltas the request incurred.
	Steps       int64 `json:"steps"`
	Faults      int64 `json:"faults"`
	MajorFaults int64 `json:"major_faults"`
	Refaults    int64 `json:"refaults"`
	IONanos     int64 `json:"io_nanos"`
}

// TraceMark is an instant on the server clock: a burst boundary or an
// inter-burst pressure reclaim.
type TraceMark struct {
	// Kind is "burst" (a burst begins) or "reclaim" (pressure reclaim).
	Kind    string  `json:"kind"`
	Burst   int     `json:"burst"`
	AtNanos float64 `json:"at_nanos"`
}

// Mark kinds.
const (
	MarkBurst   = "burst"
	MarkReclaim = "reclaim"
)

// RequestTrace is the bounded per-request recording of one serve run.
// A nil *RequestTrace is valid and records nothing at zero cost, like a
// nil Registry.
type RequestTrace struct {
	Schema   string `json:"schema"`
	Workload string `json:"workload,omitempty"`
	Layout   string `json:"layout,omitempty"`
	// Streams is the number of concurrent request streams of the run.
	Streams int `json:"streams"`
	// Limit is the record capacity; Dropped counts the records beyond it.
	Limit   int             `json:"limit"`
	Records []RequestRecord `json:"records"`
	Dropped int64           `json:"dropped"`
	Marks   []TraceMark     `json:"marks,omitempty"`
}

// NewRequestTrace creates a recorder for the given stream count, bounded
// to limit records (limit <= 0 uses DefaultTraceLimit).
func NewRequestTrace(streams, limit int) *RequestTrace {
	if limit <= 0 {
		limit = DefaultTraceLimit
	}
	if streams < 1 {
		streams = 1
	}
	return &RequestTrace{Schema: RequestTraceSchema, Streams: streams, Limit: limit}
}

// Record appends one request record, counting a drop once the recorder
// is full. Nil-safe.
func (t *RequestTrace) Record(r RequestRecord) {
	if t == nil {
		return
	}
	if len(t.Records) >= t.Limit {
		t.Dropped++
		return
	}
	t.Records = append(t.Records, r)
}

// Mark appends one instant mark. Marks are not bounded by Limit: there
// are two per burst at most, set by the harness, not by traffic.
func (t *RequestTrace) Mark(kind string, burst int, atNanos float64) {
	if t == nil {
		return
	}
	t.Marks = append(t.Marks, TraceMark{Kind: kind, Burst: burst, AtNanos: atNanos})
}

// WriteRequestTrace serializes the trace as indented JSON.
func WriteRequestTrace(w io.Writer, t *RequestTrace) error { return WriteDoc(w, t) }

// ReadRequestTrace deserializes and validates a trace written by
// WriteRequestTrace: hostile or truncated documents fail loudly instead
// of producing records whose indices crash the exporters — the contract
// FuzzRequestTraceCodec exercises.
func ReadRequestTrace(r io.Reader) (*RequestTrace, error) {
	return ReadDoc(r, "obs", "request trace", RequestTraceSchema, func(t *RequestTrace) string { return t.Schema }, (*RequestTrace).validate)
}

// validate enforces the structural invariants a decoded trace must hold
// before any consumer walks it.
func (t *RequestTrace) validate() error {
	if t.Streams < 1 || t.Streams > maxDecodeStreams {
		return fmt.Errorf("stream count %d outside [1, %d]", t.Streams, maxDecodeStreams)
	}
	if t.Limit < 0 || t.Dropped < 0 {
		return fmt.Errorf("negative limit or drop count")
	}
	if len(t.Records) > maxDecodeRecords {
		return fmt.Errorf("%d records exceeds bound %d", len(t.Records), maxDecodeRecords)
	}
	if len(t.Marks) > maxDecodeMarks {
		return fmt.Errorf("%d marks exceeds bound %d", len(t.Marks), maxDecodeMarks)
	}
	for i, r := range t.Records {
		if r.ID < 0 || r.Burst < 0 || r.Route < 0 {
			return fmt.Errorf("record %d: negative id, burst or route", i)
		}
		if r.Stream < 0 || r.Stream >= t.Streams {
			return fmt.Errorf("record %d: stream %d outside [0, %d)", i, r.Stream, t.Streams)
		}
		for _, v := range []float64{r.StartNanos, r.QueueNanos, r.ServiceNanos, r.LatencyNanos} {
			if !finiteNonNeg(v) {
				return fmt.Errorf("record %d: time not a finite non-negative number", i)
			}
		}
		if r.Steps < 0 || r.Faults < 0 || r.MajorFaults < 0 || r.Refaults < 0 || r.IONanos < 0 {
			return fmt.Errorf("record %d: negative counter", i)
		}
	}
	for i, m := range t.Marks {
		if m.Kind != MarkBurst && m.Kind != MarkReclaim {
			return fmt.Errorf("mark %d: unknown kind %q", i, m.Kind)
		}
		if m.Burst < 0 || !finiteNonNeg(m.AtNanos) {
			return fmt.Errorf("mark %d: negative burst or bad instant", i)
		}
	}
	return nil
}
