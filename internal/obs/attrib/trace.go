package attrib

// Chrome trace-event export: the obs registry's spans and the simulated
// fault stream rendered as a trace JSON that chrome://tracing and Perfetto
// load directly. Spans from the snapshot go on one "spans" track; each
// fault becomes an instant event on a per-section track.
//
// The registry records span durations and sequence numbers but no wall
// clock (runs are simulated), so the time axis is synthetic: spans are
// laid out back to back in sequence order, and fault instants sit at the
// cumulative attributed I/O time — the device-time axis the startup
// simulation actually models.

import (
	"fmt"
	"io"

	"nimage/internal/obs"
)

// FaultTimeline is the obs timeline name the trace exporter reads fault
// events from (written by osim.Mapping).
const FaultTimeline = "osim.faults"

const (
	spanTid      = obs.ChromeTid0
	sectionTid0  = spanTid + 1 // per-section fault tracks start here
	nanosPerTick = 1e3
)

// WriteChromeTrace writes snap's spans and fault timeline as Chrome
// trace-event JSON. t supplies the workload/layout names for the process
// title and may be nil.
func WriteChromeTrace(w io.Writer, snap *obs.Snapshot, t *Table) error {
	proc := "nimage"
	if t != nil && t.Workload != "" {
		proc = fmt.Sprintf("nimage %s (%s)", t.Workload, t.Layout)
	}
	tr := obs.NewChromeTrace(proc)
	tr.Thread(spanTid, "spans")
	if snap == nil {
		return tr.Write(w)
	}

	// Spans back to back in sequence order (Snapshot sorts them by seq).
	var cursor float64
	for _, sp := range snap.Spans {
		dur := float64(sp.DurationNanos) / nanosPerTick
		tr.Add(obs.ChromeEvent{Name: sp.Name, Ph: "X", Cat: "span", Ts: cursor, Dur: dur, Tid: spanTid})
		cursor += dur
	}

	// Fault instants on per-section tracks. The timeline label is the
	// section name; tracks are assigned in first-encounter order.
	tl := snap.Timeline(FaultTimeline)
	if tl == nil {
		return tr.Write(w)
	}
	col := map[string]int{}
	for i, f := range tl.Fields {
		col[f] = i
	}
	val := func(ev obs.TimelineEvent, field string) int64 {
		if i, ok := col[field]; ok && i < len(ev.Values) {
			return ev.Values[i]
		}
		return 0
	}
	tids := map[string]int{}
	var ioCursor int64
	for _, ev := range tl.Events {
		tid, ok := tids[ev.Label]
		if !ok {
			tid = sectionTid0 + len(tids)
			tids[ev.Label] = tid
			tr.Thread(tid, "faults "+ev.Label)
		}
		ioCursor += val(ev, "io_nanos")
		name := "minor fault"
		if val(ev, "major") != 0 {
			name = "major fault"
		}
		tr.Add(obs.ChromeEvent{
			Name: name, Ph: "i", Cat: "fault", S: "t",
			Ts: float64(ioCursor) / nanosPerTick, Tid: tid,
			Args: map[string]any{
				"offset":   val(ev, "offset"),
				"page":     val(ev, "page"),
				"io_nanos": val(ev, "io_nanos"),
			},
		})
	}
	return tr.Write(w)
}
