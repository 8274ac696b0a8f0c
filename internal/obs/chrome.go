package obs

// Chrome trace-event export, shared by every trace the observatory
// writes: the fault timeline (attrib), the co-residency windows
// (affinity), the per-stream request tracks (serve) and the tenant
// tracks (fleet). One event type, one document builder, and one renderer
// for request tracks. The output is the trace-event JSON that
// chrome://tracing and Perfetto load directly.

import (
	"encoding/json"
	"fmt"
	"io"
)

// ChromeEvent is one trace event. Ts and Dur are microseconds on the
// trace's time axis; Pid is stamped by ChromeTrace.Add.
type ChromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	S    string         `json:"s,omitempty"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is a trace document of one titled process whose events sit
// on named thread tracks.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const (
	chromePid = 1
	// ChromeTid0 is the first thread track; the process title sits on it.
	ChromeTid0 = 1
)

// NewChromeTrace starts a trace whose process is titled title.
func NewChromeTrace(title string) *ChromeTrace {
	t := &ChromeTrace{DisplayTimeUnit: "ms", TraceEvents: []ChromeEvent{}}
	t.Add(ChromeEvent{Name: "process_name", Ph: "M", Tid: ChromeTid0,
		Args: map[string]any{"name": title}})
	return t
}

// Thread names track tid.
func (t *ChromeTrace) Thread(tid int, name string) {
	t.Add(ChromeEvent{Name: "thread_name", Ph: "M", Tid: tid,
		Args: map[string]any{"name": name}})
}

// Add appends an event to the trace's process.
func (t *ChromeTrace) Add(ev ChromeEvent) {
	ev.Pid = chromePid
	t.TraceEvents = append(t.TraceEvents, ev)
}

// Write encodes the trace as indented JSON.
func (t *ChromeTrace) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("obs: writing chrome trace: %w", err)
	}
	return nil
}

// Request-track layout: burst and reclaim instants on the first track,
// then one track per stream (serve) or tenant (fleet).
const (
	markTid   = ChromeTid0
	trackTid0 = ChromeTid0 + 1
)

// addRequests renders rt's burst/reclaim marks and one duration event per
// request — its service time, with the queue wait in the args — on track
// trackTid0+stream, skipping records whose stream is outside [0, tracks).
// The time axis is the simulated server clock in microseconds. It returns
// the instant of each burst start.
func (t *ChromeTrace) addRequests(rt *RequestTrace, cat string, tracks int) map[int]float64 {
	const toMicros = 1e-3 // trace Ts/Dur are microseconds; records are nanos
	burstTs := make(map[int]float64)
	for _, m := range rt.Marks {
		t.Add(ChromeEvent{
			Name: fmt.Sprintf("%s %d", m.Kind, m.Burst), Ph: "i", Cat: cat, S: "g",
			Ts: m.AtNanos * toMicros, Tid: markTid,
		})
		if m.Kind == MarkBurst {
			burstTs[m.Burst] = m.AtNanos * toMicros
		}
	}
	for _, r := range rt.Records {
		if r.Stream < 0 || r.Stream >= tracks {
			continue
		}
		t.Add(ChromeEvent{
			Name: fmt.Sprintf("route %d", r.Route), Ph: "X", Cat: cat,
			Ts:  (r.StartNanos + r.QueueNanos) * toMicros,
			Dur: r.ServiceNanos * toMicros,
			Tid: trackTid0 + r.Stream,
			Args: map[string]any{
				"id": r.ID, "burst": r.Burst,
				"queue_nanos":  r.QueueNanos,
				"major_faults": r.MajorFaults, "refaults": r.Refaults,
				"io_nanos": r.IONanos, "steps": r.Steps,
			},
		})
	}
	return burstTs
}

// WriteRequestChromeTrace writes the trace as Chrome trace-event JSON:
// one track per stream, each request a duration event covering its
// service time, plus the burst/reclaim instants track.
func WriteRequestChromeTrace(w io.Writer, rt *RequestTrace) error {
	proc := "nimage serve"
	if rt.Workload != "" {
		proc = fmt.Sprintf("nimage serve %s (%s)", rt.Workload, rt.Layout)
	}
	t := NewChromeTrace(proc)
	t.Thread(markTid, "bursts + reclaims")
	for s := 0; s < rt.Streams; s++ {
		t.Thread(trackTid0+s, fmt.Sprintf("stream %02d", s))
	}
	t.addRequests(rt, "serve", rt.Streams)
	return t.Write(w)
}

// WriteFleetChromeTrace writes the fleet run as Chrome trace-event JSON:
// one track per tenant (streams are tenant ids), the burst/reclaim
// instants track, and an eviction-pressure counter track sampling each
// tenant's per-burst evictions. A nil rt still renders the counter track,
// on a synthetic axis of one tick per burst.
func WriteFleetChromeTrace(w io.Writer, rep *FleetReport, rt *RequestTrace) error {
	evictTid := trackTid0 + len(rep.Tenants)
	t := NewChromeTrace(fmt.Sprintf("nimage fleet (%d tenants)", len(rep.Tenants)))
	t.Thread(markTid, "bursts + reclaims")
	t.Thread(evictTid, "eviction pressure")
	for i, tn := range rep.Tenants {
		t.Thread(trackTid0+i, fmt.Sprintf("tenant %02d %s/%s", i, tn.Workload, tn.Strategy))
	}
	burstTs := map[int]float64{}
	if rt != nil {
		burstTs = t.addRequests(rt, "fleet", len(rep.Tenants))
	}
	for b := 0; b < rep.Bursts; b++ {
		args := map[string]any{}
		for i, tn := range rep.Tenants {
			if b < len(tn.Timeline) {
				args[fmt.Sprintf("tenant %02d", i)] = tn.Timeline[b].EvictedPages
			}
		}
		if len(args) == 0 {
			continue
		}
		ts, ok := burstTs[b]
		if !ok {
			ts = float64(b)
		}
		t.Add(ChromeEvent{
			Name: "evicted_pages", Ph: "C", Cat: "fleet",
			Ts: ts, Tid: evictTid, Args: args,
		})
	}
	return t.Write(w)
}
