package obs_test

// Golden pins for the four Chrome trace exporters (attrib, affinity,
// request trace, fleet). Inputs are built by hand with fixed values, so
// the expected traces are deterministic; outputs are compared as decoded
// JSON, so key order and whitespace are free to change. Regenerate with
//
//	go test ./internal/obs -run TestChromeTraceGolden -update

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nimage/internal/obs"
	"nimage/internal/obs/affinity"
	"nimage/internal/obs/attrib"
)

var update = flag.Bool("update", false, "rewrite the Chrome trace goldens under testdata/chrome")

func goldenSnapshot() *obs.Snapshot {
	return &obs.Snapshot{
		Schema: "nimage.obs/v1",
		Spans: []obs.SpanPoint{
			{Seq: 1, Name: "image.bake", DurationNanos: 4000},
			{Seq: 2, Name: "vm.run", DurationNanos: 2500},
		},
		Timelines: []obs.TimelinePoint{{
			Name:   attrib.FaultTimeline,
			Fields: []string{"offset", "page", "major", "io_nanos", "section"},
			Events: []obs.TimelineEvent{
				{Seq: 1, Label: ".text", Values: []int64{0, 0, 1, 1500, 0}},
				{Seq: 2, Label: ".svm_heap", Values: []int64{8192, 2, 0, 0, 1}},
				{Seq: 3, Label: ".text", Values: []int64{4100, 1, 1, 2000, 0}},
			},
		}},
	}
}

func goldenGraph() *affinity.Graph {
	return &affinity.Graph{
		Schema: affinity.GraphSchema, Workload: "serve-api", Layout: "cu",
		Nodes: []affinity.Node{
			{Name: "A.main", Kind: "cu", Section: ".text"},
			{Name: "B.get", Kind: "cu", Section: ".text"},
			{Name: "obj#7", Kind: "object", Section: ".svm_heap"},
		},
		WindowLog: []affinity.Window{
			{Start: 0, Events: 4, Nodes: []int32{0, 1}},
			{Start: 4, Events: 3, Nodes: []int32{1, 2, 0}},
			{Start: 4, Events: 2, Pressure: true, Nodes: []int32{2}},
		},
	}
}

func goldenRequests(streams int) *obs.RequestTrace {
	t := obs.NewRequestTrace(streams, 0)
	t.Workload, t.Layout = "serve-api", "cu"
	t.Mark(obs.MarkBurst, 0, 0)
	t.Record(obs.RequestRecord{ID: 0, Stream: 0, Burst: 0, Route: 3,
		StartNanos: 0, ServiceNanos: 12000, LatencyNanos: 12000,
		Steps: 40, Faults: 3, MajorFaults: 2, IONanos: 9000})
	t.Record(obs.RequestRecord{ID: 1, Stream: 1, Burst: 0, Route: 1,
		StartNanos: 500, QueueNanos: 11500, ServiceNanos: 3000, LatencyNanos: 14500,
		Steps: 25, Faults: 1, IONanos: 1000})
	t.Mark(obs.MarkReclaim, 1, 20000)
	t.Mark(obs.MarkBurst, 1, 21000)
	t.Record(obs.RequestRecord{ID: 2, Stream: 0, Burst: 1, Route: 3,
		StartNanos: 21000, ServiceNanos: 7000, LatencyNanos: 7000,
		Steps: 40, Faults: 2, MajorFaults: 1, Refaults: 1, IONanos: 4000})
	// Out-of-range stream: every exporter skips it.
	t.Records = append(t.Records, obs.RequestRecord{ID: 3, Stream: 9, Route: 1})
	return t
}

func goldenFleet() *obs.FleetReport {
	return &obs.FleetReport{
		Schema: obs.FleetSchema, Bursts: 3, BurstSize: 2, CacheBudget: 64,
		PressurePct: 40,
		Tenants: []obs.FleetTenant{
			{Tenant: 0, Workload: "serve-api", Strategy: "cu", Timeline: []obs.FleetBurst{
				{Burst: 0, EvictedPages: 0}, {Burst: 1, EvictedPages: 5}, {Burst: 2, EvictedPages: 2}}},
			{Tenant: 1, Workload: "serve-cache", Strategy: "c3", Timeline: []obs.FleetBurst{
				{Burst: 0, EvictedPages: 1}, {Burst: 1, EvictedPages: 3}}},
		},
		EvictedBy:      [][]int64{{0, 0, 0}, {0, 4, 2}, {0, 3, 2}},
		TotalEvictions: 11,
	}
}

func TestChromeTraceGolden(t *testing.T) {
	cases := []struct {
		name  string
		write func(w io.Writer) error
	}{
		{"attrib", func(w io.Writer) error {
			return attrib.WriteChromeTrace(w, goldenSnapshot(), &attrib.Table{Workload: "Bounce", Layout: "cu"})
		}},
		{"attrib-untitled", func(w io.Writer) error { return attrib.WriteChromeTrace(w, nil, nil) }},
		{"affinity", func(w io.Writer) error { return affinity.WriteChromeTrace(w, goldenGraph()) }},
		{"request", func(w io.Writer) error { return obs.WriteRequestChromeTrace(w, goldenRequests(2)) }},
		{"fleet", func(w io.Writer) error {
			return obs.WriteFleetChromeTrace(w, goldenFleet(), goldenRequests(2))
		}},
		{"fleet-untraced", func(w io.Writer) error { return obs.WriteFleetChromeTrace(w, goldenFleet(), nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.write(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "chrome", tc.name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var got, exp any
			if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
				t.Fatalf("exporter wrote invalid JSON: %v", err)
			}
			if err := json.Unmarshal(want, &exp); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, exp) {
				t.Errorf("trace differs from %s:\n%s", path, buf.String())
			}
		})
	}
}
