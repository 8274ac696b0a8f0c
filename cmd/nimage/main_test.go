package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nimage/internal/core"
	"nimage/internal/graal"
	"nimage/internal/image"
	"nimage/internal/postproc"
	"nimage/internal/profiler"
	"nimage/internal/workloads"
)

// The commands are plain functions over argument slices, so they can be
// exercised end to end without spawning processes.

func TestCmdInfo(t *testing.T) {
	if err := cmdInfo(nil); err != nil {
		t.Fatal(err)
	}
}

func TestCmdBuildRegularAndDump(t *testing.T) {
	if err := cmdBuild([]string{"-workload", "Sieve", "-dump", "SieveBench.sieve(1)"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-workload", "Sieve", "-dump", "No.such(0)"}); err == nil {
		t.Fatal("unknown dump signature accepted")
	}
	if err := cmdBuild([]string{"-workload", "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if err := cmdBuild([]string{"-workload", "Sieve", "-kind", "bogus"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	for _, kind := range []string{"regular", "optimized"} {
		err := cmdBuild([]string{"-workload", "Sieve", "-kind", kind, "-strategy", "pettis-hansen"})
		if err == nil || !strings.Contains(err.Error(), `unknown strategy "pettis-hansen"`) {
			t.Errorf("-kind %s: err = %v, want the unknown-strategy error", kind, err)
		}
	}
}

// TestCmdBuildInstrumentedProbes: -kind instrumented builds with the
// probes of -strategy, so on Bounce its .text differs from the regular
// build's and grows with the heap probes, while a strategy with no
// instrumented build is rejected.
func TestCmdBuildInstrumentedProbes(t *testing.T) {
	dir := t.TempDir()
	textBytes := func(kind, strategy string) float64 {
		t.Helper()
		out := filepath.Join(dir, kind+"-"+strings.ReplaceAll(strategy, " ", "_")+".json")
		if err := cmdBuild([]string{"-workload", "Bounce", "-kind", kind, "-strategy", strategy, "-report", out}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			Gauges []struct {
				Name  string  `json:"name"`
				Value float64 `json:"value"`
			} `json:"gauges"`
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		for _, g := range rep.Gauges {
			if g.Name == "image."+kind+".text_bytes" {
				return g.Value
			}
		}
		t.Fatalf("%s build report has no text_bytes gauge", kind)
		return 0
	}
	regular := textBytes("regular", "cu")
	heapPath := textBytes("instrumented", "heap path")
	cu := textBytes("instrumented", "cu")
	if heapPath <= regular || cu == regular || cu == heapPath {
		t.Errorf(".text bytes: regular %v, instrumented heap path %v, instrumented cu %v; want three distinct sizes, heap probes larger than none",
			regular, heapPath, cu)
	}
	err := cmdBuild([]string{"-workload", "Bounce", "-kind", "instrumented", "-strategy", "c3"})
	if err == nil || !strings.Contains(err.Error(), "no instrumented build") {
		t.Errorf("-strategy c3: err = %v, want the no-instrumented-build error", err)
	}
}

func TestCmdBuildOptimized(t *testing.T) {
	if err := cmdBuild([]string{"-workload", "Sieve", "-kind", "optimized", "-strategy", "cu"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdRun(t *testing.T) {
	if err := cmdRun([]string{"-workload", "Sieve"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{"-workload", "Sieve", "-strategy", "heap path", "-device", "nfs"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdServe(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "serve.json")
	trace := filepath.Join(dir, "trace.json")
	if err := cmdServe([]string{"-workload", "serve-api", "-bursts", "2", "-burst", "6", "-pressure", "40",
		"-streams", "2", "-report", out, "-trace", trace}); err != nil {
		t.Fatal(err)
	}
	tdata, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var tdoc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tdata, &tdoc); err != nil {
		t.Fatalf("Chrome trace JSON: %v", err)
	}
	streams, requests := 0, 0
	for _, ev := range tdoc.TraceEvents {
		switch {
		case ev.Ph == "M" && strings.HasPrefix(ev.Args.Name, "stream "):
			streams++
		case ev.Ph == "X":
			requests++
		}
	}
	// 2 streams × 2 bursts × 6 requests, one duration event each.
	if streams != 2 || requests != 24 {
		t.Errorf("Chrome trace has %d stream tracks and %d request events, want 2 and 24", streams, requests)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema  string `json:"schema"`
		Entries []struct {
			Serve []any `json:"serve"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report JSON: %v", err)
	}
	if rep.Schema != "nimage.report/v6" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if len(rep.Entries) == 0 || len(rep.Entries[0].Serve) == 0 {
		t.Fatalf("report carries no serve outcomes: %+v", rep)
	}
	if err := cmdServe([]string{"-workload", "serve-cache", "-bursts", "2", "-burst", "4", "-budget", "64"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdServe([]string{"-workload", "Sieve"}); err == nil {
		t.Fatal("non-serve workload accepted")
	}
}

func TestCmdServeRejectsBadFlags(t *testing.T) {
	cases := map[string][]string{
		"pressure-over-100": {"-workload", "serve-api", "-pressure", "140"},
		"pressure-negative": {"-workload", "serve-api", "-pressure", "-5"},
		"hot-pct-over-100":  {"-workload", "serve-api", "-hot-pct", "101"},
		"bursts-zero":       {"-workload", "serve-api", "-bursts", "0"},
		"bursts-negative":   {"-workload", "serve-api", "-bursts", "-2"},
		"burst-zero":        {"-workload", "serve-api", "-burst", "0"},
		"budget-negative":   {"-workload", "serve-api", "-budget", "-1"},
		"streams-zero":      {"-workload", "serve-api", "-streams", "0"},
		"streams-negative":  {"-workload", "serve-api", "-streams", "-3"},
	}
	for name, args := range cases {
		err := cmdServe(args)
		if err == nil {
			t.Errorf("%s: accepted %v", name, args)
			continue
		}
		if !strings.Contains(err.Error(), "must be") {
			t.Errorf("%s: unhelpful error %v", name, err)
		}
	}
}

func TestCmdFleet(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "fleet.json")
	trace := filepath.Join(dir, "trace.json")
	report := filepath.Join(dir, "report.json")
	if err := cmdFleet([]string{"-tenants", "2", "-budget", "96", "-quota", "40",
		"-bursts", "2", "-burst", "6", "-o", out, "-trace", trace, "-report", report}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema    string      `json:"schema"`
		Tenants   []any       `json:"tenants"`
		EvictedBy [][]float64 `json:"evicted_by"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("fleet JSON: %v", err)
	}
	if rep.Schema != "nimage.fleet/v1" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if len(rep.Tenants) != 2 || len(rep.EvictedBy) != 3 {
		t.Fatalf("tenants=%d matrix rows=%d", len(rep.Tenants), len(rep.EvictedBy))
	}
	st, err := os.Stat(trace)
	if err != nil || st.Size() == 0 {
		t.Errorf("Chrome trace missing or empty: %v", err)
	}
	rdata, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema string `json:"schema"`
		Fleet  *struct {
			Schema string `json:"schema"`
		} `json:"fleet"`
	}
	if err := json.Unmarshal(rdata, &doc); err != nil {
		t.Fatalf("report JSON: %v", err)
	}
	if doc.Schema != "nimage.report/v6" || doc.Fleet == nil || doc.Fleet.Schema != "nimage.fleet/v1" {
		t.Fatalf("report document: %+v", doc)
	}
	if err := cmdFleet([]string{"-tenants", "2", "-workloads", "Sieve,serve-api",
		"-bursts", "2", "-burst", "4"}); err == nil {
		t.Fatal("non-serve workload accepted")
	}
	if err := cmdFleet([]string{"-tenants", "99"}); err == nil {
		t.Fatal("tenant count beyond the distinct pair space accepted")
	}
}

func TestCmdFleetRejectsBadFlags(t *testing.T) {
	cases := map[string][]string{
		"tenants-one":       {"-tenants", "1"},
		"tenants-zero":      {"-tenants", "0"},
		"tenants-negative":  {"-tenants", "-2"},
		"quota-negative":    {"-tenants", "2", "-quota", "-1"},
		"quota-over-100":    {"-tenants", "2", "-quota", "101"},
		"budget-zero":       {"-tenants", "2", "-budget", "0"},
		"budget-negative":   {"-tenants", "2", "-budget", "-64"},
		"bursts-zero":       {"-tenants", "2", "-bursts", "0"},
		"bursts-negative":   {"-tenants", "2", "-bursts", "-3"},
		"burst-zero":        {"-tenants", "2", "-burst", "0"},
		"pressure-over-100": {"-tenants", "2", "-pressure", "140"},
		"hot-pct-negative":  {"-tenants", "2", "-hot-pct", "-5"},
	}
	for name, args := range cases {
		err := cmdFleet(args)
		if err == nil {
			t.Errorf("%s: accepted %v", name, args)
			continue
		}
		if !strings.Contains(err.Error(), "must") {
			t.Errorf("%s: unhelpful error %v", name, err)
		}
	}
}

// TestCmdsRejectRemovedLayoutSearch: the deleted slo-search layout is no
// longer a registered strategy, so every command that bakes by name
// rejects it through the registry lookup.
func TestCmdsRejectRemovedLayoutSearch(t *testing.T) {
	cases := map[string]struct {
		cmd  func([]string) error
		args []string
	}{
		"build": {cmdBuild, []string{"-workload", "Sieve", "-kind", "optimized", "-strategy", "slo-search"}},
		"serve": {cmdServe, []string{"-workload", "serve-api", "-strategy", "slo-search", "-bursts", "1", "-burst", "2"}},
	}
	for name, tc := range cases {
		err := tc.cmd(tc.args)
		if err == nil || !strings.Contains(err.Error(), `unknown strategy "slo-search"`) {
			t.Errorf("%s: err = %v, want the unknown-strategy error", name, err)
		}
	}
}

// TestCmdsRejectBadFlags: every subcommand with numeric bounds rejects
// out-of-range values up front instead of clamping them.
func TestCmdsRejectBadFlags(t *testing.T) {
	cases := map[string]struct {
		cmd  func([]string) error
		args []string
	}{
		"report-builds-zero":      {cmdReport, []string{"-workloads", "Sieve", "-builds", "0"}},
		"report-workers-negative": {cmdReport, []string{"-workloads", "Sieve", "-workers", "-1"}},
		"affinity-budget-neg":     {cmdAffinity, []string{"-workload", "serve-api", "-budget", "-4"}},
		// A mistyped device is an error, not a silent SSD run.
		"run-device-typo":      {cmdRun, []string{"-workload", "Sieve", "-device", "tape"}},
		"exec-device-typo":     {cmdExec, []string{"-image", "x.nimg", "-device", "tape"}},
		"faults-device-typo":   {cmdFaults, []string{"-workload", "Sieve", "-device", "tape"}},
		"affinity-device-typo": {cmdAffinity, []string{"-workload", "serve-api", "-device", "tape"}},
		"serve-device-typo":    {cmdServe, []string{"-workload", "serve-api", "-device", "tape"}},
	}
	for name, tc := range cases {
		err := tc.cmd(tc.args)
		if err == nil {
			t.Errorf("%s: accepted %v", name, tc.args)
			continue
		}
		if !strings.Contains(err.Error(), "must be") {
			t.Errorf("%s: unhelpful error %v", name, err)
		}
	}
}

func TestCmdAffinity(t *testing.T) {
	dir := t.TempDir()
	graph := filepath.Join(dir, "graph.json")
	dot := filepath.Join(dir, "graph.dot")
	trace := filepath.Join(dir, "trace.json")
	if err := cmdAffinity([]string{"-workload", "serve-api", "-bursts", "2", "-burst", "6",
		"-o", graph, "-dot", dot, "-trace", trace}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(graph)
	if err != nil {
		t.Fatal(err)
	}
	var g struct {
		Schema string `json:"schema"`
		Nodes  []any  `json:"nodes"`
		Edges  []any  `json:"edges"`
	}
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatalf("graph JSON: %v", err)
	}
	if g.Schema != "nimage.affinity/v1" || len(g.Nodes) == 0 || len(g.Edges) == 0 {
		t.Fatalf("graph document: schema=%q nodes=%d edges=%d", g.Schema, len(g.Nodes), len(g.Edges))
	}
	for _, f := range []string{dot, trace} {
		st, err := os.Stat(f)
		if err != nil || st.Size() == 0 {
			t.Errorf("artifact %s missing or empty: %v", f, err)
		}
	}
	if err := cmdAffinity([]string{"-workload", "Sieve"}); err == nil {
		t.Fatal("non-serve workload accepted")
	}
	if err := cmdAffinity([]string{"-workload", "serve-api", "-pressure", "500"}); err == nil {
		t.Fatal("out-of-range pressure accepted")
	}
}

func TestCmdAffinityDiff(t *testing.T) {
	if err := cmdAffinity([]string{"-workload", "serve-api", "-bursts", "2", "-burst", "6",
		"-diff", "-strategies", "cu", "-top", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdProfileWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "prof.csv")
	trace := filepath.Join(dir, "trace.bin")
	if err := cmdProfile([]string{"-workload", "Sieve", "-strategy", "heap path", "-out", csv, "-trace", trace}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{csv, trace} {
		st, err := os.Stat(f)
		if err != nil || st.Size() == 0 {
			t.Errorf("artifact %s missing or empty: %v", f, err)
		}
	}
	if err := cmdProfile([]string{"-workload", "Sieve", "-strategy", "bogus"}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestCmdProfileMatchesPipeline: for each cold-start strategy, the CSV
// nimage profile writes is the profile BuildOptimized feeds its optimized
// build at the same seed; strategies outside the cold-start set are
// rejected.
func TestCmdProfileMatchesPipeline(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"Bounce", "micronaut"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range core.EvalStrategyNames() {
			csv := filepath.Join(dir, name+"-"+s+".csv")
			if err := cmdProfile([]string{"-workload", name, "-strategy", s, "-seed", "7", "-out", csv}); err != nil {
				t.Fatal(err)
			}
			res, err := image.BuildOptimized(w.Build(), image.PipelineOptions{
				Compiler: graal.DefaultConfig(), Strategy: s, InstrumentedSeed: 7, OptimizedSeed: 8,
				Mode: profiler.ModeFor(w.Service), Args: w.Args, Service: w.Service,
			})
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(csv)
			if err != nil {
				t.Fatal(err)
			}
			var got, want any
			if info, _ := core.StrategyByName(s); info.Instr[0] == graal.InstrHeap {
				got, err = postproc.ReadHeapProfile(f)
				want = res.HeapProfile
			} else {
				got, err = postproc.ReadCodeProfile(f)
				want = res.CodeProfile
			}
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: profile CSV differs from the pipeline's profile", name, s)
			}
		}
	}
	// A name outside the registry (the removed Pettis–Hansen baseline)
	// gets the unknown-strategy error; the serve-only graph strategies
	// have no profiling run to export.
	for _, s := range []string{"pettis-hansen", core.StrategyC3} {
		err := cmdProfile([]string{"-workload", "Bounce", "-strategy", s, "-out", filepath.Join(dir, "x.csv")})
		if err == nil || !strings.Contains(err.Error(), `unknown strategy "`+s+`"`) {
			t.Errorf("strategy %q: err = %v, want the unknown-strategy error", s, err)
		}
	}
}

func TestCmdVizSections(t *testing.T) {
	dir := t.TempDir()
	if err := cmdViz([]string{"-workload", "Sieve", "-ppm", filepath.Join(dir, "grid")}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "grid-regular.ppm")); err != nil {
		t.Error("regular PPM missing")
	}
	if err := cmdViz([]string{"-workload", "Sieve", "-section", "heap"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdViz([]string{"-workload", "Sieve", "-section", "bogus"}); err == nil {
		t.Fatal("unknown section accepted")
	}
}

func TestCmdExportExecRoundTrip(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join(dir, "sieve.nimg")
	if err := cmdExport([]string{"-workload", "Sieve", "-strategy", "cu", "-o", img}); err != nil {
		t.Fatal(err)
	}
	if err := cmdExec([]string{"-image", img}); err != nil {
		t.Fatal(err)
	}
	if err := cmdExec(nil); err == nil || !strings.Contains(err.Error(), "-image is required") {
		t.Fatalf("err = %v", err)
	}
	if err := cmdExec([]string{"-image", filepath.Join(dir, "missing.nimg")}); err == nil {
		t.Fatal("missing image accepted")
	}
}

func TestCmdVerify(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "verify.json")
	if err := cmdVerify([]string{"-workloads", "Sieve", "-strategies", "cu", "-q", "-o", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Pairs       int   `json:"pairs"`
		Checks      int   `json:"checks"`
		Divergences []any `json:"divergences"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report JSON: %v", err)
	}
	if rep.Pairs != 1 || rep.Checks == 0 || len(rep.Divergences) != 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if err := cmdVerify([]string{"-workloads", "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
