package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func sampleTrace() *RequestTrace {
	tr := NewRequestTrace(2, 8)
	tr.Workload = "serve-api"
	tr.Layout = "identity"
	tr.Mark(MarkBurst, 0, 0)
	tr.Record(RequestRecord{ID: 0, Stream: 0, Burst: 0, Route: 3,
		StartNanos: 0, QueueNanos: 0, ServiceNanos: 1500, LatencyNanos: 1500,
		Steps: 40, Faults: 2, MajorFaults: 1, Refaults: 0, IONanos: 1200})
	tr.Record(RequestRecord{ID: 1, Stream: 1, Burst: 0, Route: 0,
		StartNanos: 0, QueueNanos: 1500, ServiceNanos: 300, LatencyNanos: 1800,
		Steps: 12})
	tr.Mark(MarkReclaim, 1, 1800)
	tr.Mark(MarkBurst, 1, 1900)
	tr.Record(RequestRecord{ID: 2, Stream: 0, Burst: 1, Route: 3,
		StartNanos: 1900, ServiceNanos: 200, LatencyNanos: 200, Steps: 12})
	return tr
}

func TestRequestTraceBounded(t *testing.T) {
	tr := NewRequestTrace(1, 2)
	for i := 0; i < 5; i++ {
		tr.Record(RequestRecord{ID: i})
	}
	if len(tr.Records) != 2 || tr.Dropped != 3 {
		t.Fatalf("records=%d dropped=%d, want 2/3", len(tr.Records), tr.Dropped)
	}
	// Default limit kicks in for non-positive limits.
	if d := NewRequestTrace(1, 0); d.Limit != DefaultTraceLimit {
		t.Errorf("default limit = %d", d.Limit)
	}
	if d := NewRequestTrace(0, 4); d.Streams != 1 {
		t.Errorf("streams clamped to %d, want 1", d.Streams)
	}
}

func TestRequestTraceNilSafe(t *testing.T) {
	var tr *RequestTrace
	tr.Record(RequestRecord{})
	tr.Mark(MarkBurst, 0, 0)
}

func TestRequestTraceCodecRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteRequestTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequestTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(tr)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatalf("round trip changed the trace:\n%s\n%s", a, b)
	}
}

func TestReadRequestTraceRejectsHostile(t *testing.T) {
	for name, doc := range map[string]string{
		"bad schema":     `{"schema":"nope/v1","streams":1,"limit":8}`,
		"zero streams":   `{"schema":"nimage.reqtrace/v1","streams":0,"limit":8}`,
		"huge streams":   `{"schema":"nimage.reqtrace/v1","streams":99999999,"limit":8}`,
		"stream oob":     `{"schema":"nimage.reqtrace/v1","streams":1,"limit":8,"records":[{"stream":3}]}`,
		"negative id":    `{"schema":"nimage.reqtrace/v1","streams":1,"limit":8,"records":[{"id":-1}]}`,
		"negative time":  `{"schema":"nimage.reqtrace/v1","streams":1,"limit":8,"records":[{"latency_nanos":-5}]}`,
		"negative count": `{"schema":"nimage.reqtrace/v1","streams":1,"limit":8,"records":[{"faults":-1}]}`,
		"bad mark kind":  `{"schema":"nimage.reqtrace/v1","streams":1,"limit":8,"marks":[{"kind":"boom"}]}`,
		"negative drop":  `{"schema":"nimage.reqtrace/v1","streams":1,"limit":8,"dropped":-1}`,
		"not json":       `}{`,
	} {
		if _, err := ReadRequestTrace(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestWriteRequestChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRequestChromeTrace(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter wrote invalid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("display unit %q", doc.DisplayTimeUnit)
	}
	var meta, instants, durations int
	tids := map[int]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "i":
			instants++
		case "X":
			durations++
			tids[e.Tid] = true
		}
	}
	// One process-name record plus one thread name for the marks track and
	// one per stream.
	if meta != 2+2 {
		t.Errorf("%d metadata events, want 4", meta)
	}
	if instants != 3 {
		t.Errorf("%d instants, want 3 marks", instants)
	}
	if durations != 3 {
		t.Errorf("%d duration events, want 3 requests", durations)
	}
	// The two streams land on distinct tracks.
	if len(tids) != 2 {
		t.Errorf("requests spread over %d tracks, want 2", len(tids))
	}
	// The queued request renders at its service start, not its arrival.
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Args["id"] == float64(1) {
			if e.Ts != 1.5 { // (0 + 1500 queue) nanos -> 1.5 µs
				t.Errorf("queued request Ts = %v µs, want 1.5", e.Ts)
			}
			if e.Args["queue_nanos"] != float64(1500) {
				t.Errorf("queued request args = %v", e.Args)
			}
		}
	}
}

// FuzzRequestTraceCodec fuzzes the request-trace codec: any input must
// either be rejected or decode to a trace that re-encodes and re-decodes
// to the same value (accepted inputs are a round-trip fixed point), and no
// input may panic the decoder.
func FuzzRequestTraceCodec(f *testing.F) {
	var tr bytes.Buffer
	if err := WriteRequestTrace(&tr, sampleTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(tr.Bytes())
	f.Add([]byte(`{"schema":"nimage.reqtrace/v1","streams":1,"limit":0}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadRequestTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteRequestTrace(&buf, tr); err != nil {
			t.Fatalf("accepted trace failed to encode: %v", err)
		}
		again, err := ReadRequestTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		a, _ := json.Marshal(tr)
		b, _ := json.Marshal(again)
		if !bytes.Equal(a, b) {
			t.Fatalf("trace round trip not a fixed point:\n%s\n%s", a, b)
		}
	})
}
