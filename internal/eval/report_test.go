package eval

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"nimage/internal/core"
	"nimage/internal/workloads"
)

// reportConfig keeps the observed-report test cheap: one build.
func reportConfig() Config {
	cfg := DefaultConfig()
	cfg.Builds = 1
	cfg.Observe = true
	return cfg
}

// TestReportObserved runs an observed harness over one AWFY workload and
// one microservice and checks that the consolidated report carries the
// acceptance-relevant records: pipeline stage spans, per-section fault
// timelines, heap match breakdowns, and profiler dump statistics.
func TestReportObserved(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	h := NewHarness(reportConfig())
	var ws []workloads.Workload
	for _, name := range []string{"Bounce", "micronaut"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	rep, err := h.Report(ws, []string{core.StrategyCU, core.StrategyHeapPath})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ReportSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, ReportSchema)
	}
	// 2 workloads x (baseline + 2 strategies).
	if len(rep.Entries) != 6 {
		t.Fatalf("entries = %d, want 6", len(rep.Entries))
	}
	for _, e := range rep.Entries {
		if len(e.Pipeline) != 1 || len(e.Runs) != 1 || len(e.Measures) != 1 {
			t.Fatalf("%s/%s: pipeline=%d runs=%d measures=%d, want 1 each",
				e.Workload, e.Strategy, len(e.Pipeline), len(e.Runs), len(e.Measures))
		}
		// Every build must have timed pipeline stages.
		spans := 0
		for _, sp := range e.Pipeline[0].Spans {
			if strings.Contains(sp.Name, "reachability") || strings.Contains(sp.Name, "snapshot_heap") {
				spans++
			}
		}
		if spans == 0 {
			t.Errorf("%s/%s: no build stage spans in pipeline snapshot", e.Workload, e.Strategy)
		}
		// Every cold run must have a per-section fault timeline.
		tl := e.Runs[0].Timeline("osim.faults")
		if tl == nil || len(tl.Events) == 0 {
			t.Errorf("%s/%s: missing osim.faults timeline", e.Workload, e.Strategy)
			continue
		}
		seen := map[string]bool{}
		for _, ev := range tl.Events {
			seen[ev.Label] = true
		}
		if !seen[".text"] || !seen[".svm_heap"] {
			t.Errorf("%s/%s: fault timeline lacks sections: %v", e.Workload, e.Strategy, seen)
		}
		if e.Measures[0].Report != nil {
			t.Errorf("%s/%s: scalar measures still embed the snapshot", e.Workload, e.Strategy)
		}
		if e.Measures[0].Attrib != nil {
			t.Errorf("%s/%s: scalar measures still embed the attribution table", e.Workload, e.Strategy)
		}
		// v2: every entry carries the merged fault attribution, labeled with
		// its layout, and its section totals reconcile with the timeline.
		if e.Attribution == nil {
			t.Fatalf("%s/%s: missing attribution table", e.Workload, e.Strategy)
		}
		if len(e.Attribution.Symbols) == 0 || e.Attribution.TotalFaults() == 0 {
			t.Errorf("%s/%s: empty attribution table", e.Workload, e.Strategy)
		}
		wantLayout := e.Strategy
		if wantLayout == "" {
			wantLayout = LayoutBaseline
		}
		if e.Attribution.Layout != wantLayout {
			t.Errorf("%s/%s: attribution layout = %q, want %q",
				e.Workload, e.Strategy, e.Attribution.Layout, wantLayout)
		}
		if int64(len(tl.Events)) != e.Attribution.TotalFaults() {
			t.Errorf("%s/%s: %d timeline events vs %d attributed faults",
				e.Workload, e.Strategy, len(tl.Events), e.Attribution.TotalFaults())
		}
		switch e.Strategy {
		case "":
			if e.HeapMatch != nil {
				t.Errorf("%s baseline has a heap match breakdown", e.Workload)
			}
		case core.StrategyCU:
			// Pure code strategy: profiler stats but no heap profile.
			if e.Pipeline[0].Counter("profiler.events."+"cu") == 0 {
				t.Errorf("%s/cu: no CU probe events recorded", e.Workload)
			}
		case core.StrategyHeapPath:
			if e.HeapMatch == nil {
				t.Fatalf("%s/heap path: missing match breakdown", e.Workload)
			}
			hm := e.HeapMatch
			if hm.MatchedObjects+hm.UnmatchedObjects == 0 {
				t.Errorf("%s/heap path: empty breakdown %+v", e.Workload, hm)
			}
			if hm.Strategy != core.StrategyHeapPath {
				t.Errorf("%s: breakdown strategy = %q", e.Workload, hm.Strategy)
			}
			if e.Pipeline[0].Counter("profiler.paths") == 0 {
				t.Errorf("%s/heap path: no path records counted", e.Workload)
			}
		}
	}
	// The microservice profiling run uses memory-mapped buffers, whose
	// durable bytes must be reported.
	var sawMmapBytes bool
	for _, e := range rep.Entries {
		if e.Service && e.Strategy != "" && len(e.Pipeline) > 0 {
			if e.Pipeline[0].Gauge("profiler.bytes_written") > 0 {
				sawMmapBytes = true
			}
		}
	}
	if !sawMmapBytes {
		t.Error("no profiler.bytes_written recorded for microservice pipelines")
	}

	// The document must be valid, round-trippable JSON.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if len(back.Entries) != len(rep.Entries) {
		t.Errorf("round trip lost entries: %d != %d", len(back.Entries), len(rep.Entries))
	}
}

// TestHarnessDetachedHasNoReports pins the default: without Observe, no
// snapshots are allocated or attached anywhere.
func TestHarnessDetachedHasNoReports(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	h := NewHarness(cfg)
	w, err := workloads.ByName("Bounce")
	if err != nil {
		t.Fatal(err)
	}
	base, err := h.MeasureStrategy(w, LayoutBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Pipeline) != 0 {
		t.Error("detached harness produced pipeline snapshots")
	}
	for _, m := range base.Measures {
		if m.Report != nil {
			t.Error("detached harness attached a run report")
		}
		if m.Attrib != nil {
			t.Error("detached harness attached an attribution table")
		}
	}
}

// TestReportNamesIndependentOfWorkers: a shared profile observes into its
// own registry, merged into every build that uses it, so each entry's
// span and gauge names do not depend on which strategy happened to
// compute the profile — the same at 1 and at 4 workers.
func TestReportNamesIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline runs")
	}
	w, err := workloads.ByName("Bounce")
	if err != nil {
		t.Fatal(err)
	}
	strategies := []string{core.StrategyCU, core.StrategyIncremental, core.StrategyHeapPath, core.StrategyCombined}
	names := func(workers int) map[string][]string {
		cfg := reportConfig()
		cfg.Workers = workers
		rep, err := NewHarness(cfg).Report([]workloads.Workload{w}, strategies)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]string{}
		for _, e := range rep.Entries {
			var ns []string
			for _, snap := range e.Pipeline {
				for _, sp := range snap.Spans {
					ns = append(ns, "span "+sp.Name)
				}
				for _, g := range snap.Gauges {
					ns = append(ns, "gauge "+g.Name)
				}
			}
			sort.Strings(ns)
			out[e.Strategy] = ns
		}
		return out
	}
	serial, parallel := names(1), names(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("pipeline names differ between 1 and 4 workers:\n%v\n%v", serial, parallel)
	}
	for _, s := range []string{core.StrategyIncremental, core.StrategyCombined} {
		if !slices.Contains(serial[s], "gauge pipeline.heap.trace_words") {
			t.Errorf("%s: the shared heap profile's gauges are missing: %v", s, serial[s])
		}
	}
}
