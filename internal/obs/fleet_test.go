package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func sampleFleetReport() *FleetReport {
	return &FleetReport{
		Schema:      FleetSchema,
		Bursts:      2,
		BurstSize:   8,
		CacheBudget: 96,
		PressurePct: 50,
		Tenants: []FleetTenant{
			{
				Tenant: 0, Workload: "serve-api", Strategy: "cu+heap path",
				StartupNanos: 4.2e6, WarmMeanNanos: 1.8e5, WarmP99Nanos: 9.1e5,
				Faults: 420, MajorFaults: 120, Refaults: 30, IONanos: 8.6e6,
				EvictedPages: 5, ResidentPages: 44,
				Timeline: []FleetBurst{
					{Burst: 0, Requests: 8, MeanNanos: 2.5e5, P99Nanos: 1.4e6,
						MajorFaults: 80, Refaults: 0, EvictedPages: 2, ResidentPages: 40},
					{Burst: 1, Requests: 8, MeanNanos: 1.8e5, P99Nanos: 9.1e5,
						MajorFaults: 40, Refaults: 30, EvictedPages: 3, ResidentPages: 44},
				},
				SoloWarmMeanNanos: 1.5e5, SoloRefaults: 10,
				IsolationLatency: 1.2, IsolationRefault: 31.0 / 11.0,
			},
			{
				Tenant: 1, Workload: "serve-cache", Strategy: "c3", QuotaPages: 48,
				StartupNanos: 3.9e6, WarmMeanNanos: 1.2e5, WarmP99Nanos: 6.4e5,
				Faults: 380, MajorFaults: 90, Refaults: 18, IONanos: 6.2e6,
				EvictedPages: 7, ResidentPages: 48,
				Timeline: []FleetBurst{
					{Burst: 0, Requests: 8, MeanNanos: 1.9e5, P99Nanos: 8.8e5,
						MajorFaults: 60, Refaults: 0, EvictedPages: 4, ResidentPages: 46},
					{Burst: 1, Requests: 8, MeanNanos: 1.2e5, P99Nanos: 6.4e5,
						MajorFaults: 30, Refaults: 18, EvictedPages: 3, ResidentPages: 48},
				},
				SoloWarmMeanNanos: 1.1e5, SoloRefaults: 8,
				IsolationLatency: 1.09, IsolationRefault: 19.0 / 9.0,
			},
		},
		EvictedBy: [][]int64{
			{0, 2, 3},
			{0, 1, 2},
			{0, 2, 2},
		},
		TotalEvictions: 12,
	}
}

func TestFleetReportCodecRoundTrip(t *testing.T) {
	rep := sampleFleetReport()
	var buf bytes.Buffer
	if err := WriteFleetReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFleetReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatalf("round trip changed the report:\n%s\n%s", a, b)
	}
}

func TestReadFleetReportRejectsHostile(t *testing.T) {
	for name, doc := range map[string]string{
		"bad schema":       `{"schema":"nope","evicted_by":[[0]]}`,
		"negative bursts":  `{"schema":"nimage.fleet/v1","bursts":-1,"evicted_by":[[0]]}`,
		"bad pressure":     `{"schema":"nimage.fleet/v1","pressure_pct":130,"evicted_by":[[0]]}`,
		"tenant id":        `{"schema":"nimage.fleet/v1","tenants":[{"tenant":1,"workload":"w","strategy":"s"}],"evicted_by":[[0,0],[0,0]]}`,
		"empty workload":   `{"schema":"nimage.fleet/v1","tenants":[{"tenant":0,"workload":"","strategy":"s"}],"evicted_by":[[0,0],[0,0]]}`,
		"negative counter": `{"schema":"nimage.fleet/v1","tenants":[{"tenant":0,"workload":"w","strategy":"s","faults":-1}],"evicted_by":[[0,0],[0,0]]}`,
		"burst index":      `{"schema":"nimage.fleet/v1","tenants":[{"tenant":0,"workload":"w","strategy":"s","timeline":[{"burst":3}]}],"evicted_by":[[0,0],[0,0]]}`,
		"missing matrix":   `{"schema":"nimage.fleet/v1"}`,
		"ragged matrix":    `{"schema":"nimage.fleet/v1","tenants":[{"tenant":0,"workload":"w","strategy":"s"}],"evicted_by":[[0,0],[0]]}`,
		"matrix sum":       `{"schema":"nimage.fleet/v1","evicted_by":[[3]],"total_evictions":2}`,
		"column sum":       `{"schema":"nimage.fleet/v1","tenants":[{"tenant":0,"workload":"w","strategy":"s","evicted_pages":1}],"evicted_by":[[0,0],[0,0]],"total_evictions":0}`,
		"negative cell":    `{"schema":"nimage.fleet/v1","evicted_by":[[-1]],"total_evictions":-1}`,
		"bad isolation":    `{"schema":"nimage.fleet/v1","tenants":[{"tenant":0,"workload":"w","strategy":"s","isolation_latency":-1}],"evicted_by":[[0,0],[0,0]]}`,
		"not json":         `]`,
	} {
		if _, err := ReadFleetReport(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadFleetReportIgnoresSLOFields: fleet documents written before the
// SLO scorecard was removed carry "targets" and per-tenant "attainment";
// they still decode and validate under the same schema, and the dropped
// fields do not survive a re-encode.
func TestReadFleetReportIgnoresSLOFields(t *testing.T) {
	old := `{"schema":"nimage.fleet/v1","bursts":2,"burst_size":8,"cache_budget":96,"pressure_pct":50,
		"targets":[{"quantile":0.5,"budget_nanos":100000},{"quantile":0.99,"budget_nanos":2000000}],
		"tenants":[{"tenant":0,"workload":"serve-api","strategy":"c3","warm_mean_nanos":1200,"evicted_pages":1,
			"attainment":[{"quantile":0.5,"budget_nanos":100000,"measured_nanos":900,"violations":1,
				"requests":16,"violation_frac":0.0625,"attained":true,"budget_burn":0.125}]}],
		"evicted_by":[[0,1],[0,0]],"total_evictions":1}`
	rep, err := ReadFleetReport(strings.NewReader(old))
	if err != nil {
		t.Fatalf("pre-removal fleet document rejected: %v", err)
	}
	if len(rep.Tenants) != 1 || rep.Tenants[0].Strategy != "c3" || rep.Tenants[0].WarmMeanNanos != 1200 {
		t.Fatalf("decoded tenants %+v", rep.Tenants)
	}
	var buf bytes.Buffer
	if err := WriteFleetReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"targets"`, `"attainment"`} {
		if strings.Contains(buf.String(), key) {
			t.Errorf("re-encoded document still carries %s", key)
		}
	}
}

func TestWriteFleetChromeTrace(t *testing.T) {
	rep := sampleFleetReport()
	tr := NewRequestTrace(2, 16)
	tr.Mark(MarkBurst, 0, 0)
	tr.Record(RequestRecord{ID: 0, Stream: 0, Burst: 0, Route: 1,
		StartNanos: 10, ServiceNanos: 100, LatencyNanos: 100})
	tr.Mark(MarkReclaim, 1, 500)
	tr.Mark(MarkBurst, 1, 600)
	tr.Record(RequestRecord{ID: 1, Stream: 1, Burst: 1, Route: 0,
		StartNanos: 620, QueueNanos: 5, ServiceNanos: 80, LatencyNanos: 85})
	var buf bytes.Buffer
	if err := WriteFleetChromeTrace(&buf, rep, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	var tenantTracks, counters, instants, durations int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			if name, _ := ev["args"].(map[string]any)["name"].(string); strings.HasPrefix(name, "tenant ") {
				tenantTracks++
			}
		case "C":
			counters++
		case "i":
			instants++
		case "X":
			durations++
		}
	}
	if tenantTracks != 2 {
		t.Errorf("got %d tenant tracks, want 2", tenantTracks)
	}
	if counters != rep.Bursts {
		t.Errorf("got %d eviction counter samples, want %d", counters, rep.Bursts)
	}
	if instants != 3 || durations != 2 {
		t.Errorf("got %d instants and %d request events, want 3 and 2", instants, durations)
	}
	// A nil request trace still renders the eviction-pressure track.
	buf.Reset()
	if err := WriteFleetChromeTrace(&buf, rep, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "eviction pressure") {
		t.Error("traceless export dropped the eviction-pressure track")
	}
}

// FuzzFleetCodec fuzzes the fleet report codec: any input must either be
// rejected or decode to a document that re-encodes and re-decodes to the
// same value (accepted inputs are a round-trip fixed point), and no
// input may panic the decoder.
func FuzzFleetCodec(f *testing.F) {
	var rep bytes.Buffer
	if err := WriteFleetReport(&rep, sampleFleetReport()); err != nil {
		f.Fatal(err)
	}
	f.Add(rep.Bytes())
	f.Add([]byte(`{"schema":"nimage.fleet/v1","evicted_by":[[0]]}`))
	f.Add([]byte(`{"schema":"nimage.fleet/v1","tenants":[{"tenant":0,"workload":"w","strategy":"s"}],"evicted_by":[[0,1],[0,0]],"total_evictions":1}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := ReadFleetReport(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFleetReport(&buf, rep); err != nil {
			t.Fatalf("accepted report failed to encode: %v", err)
		}
		again, err := ReadFleetReport(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded report rejected: %v", err)
		}
		a, _ := json.Marshal(rep)
		b, _ := json.Marshal(again)
		if !bytes.Equal(a, b) {
			t.Fatalf("report round trip not a fixed point:\n%s\n%s", a, b)
		}
	})
}
