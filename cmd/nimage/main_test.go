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
	if err := cmdServe([]string{"-workload", "serve-api", "-bursts", "2", "-burst", "6", "-pressure", "40", "-report", out}); err != nil {
		t.Fatal(err)
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
	if err := cmdServe([]string{"-workload", "serve-cache", "-bursts", "2", "-burst", "4", "-budget", "64", "-policy", "clock"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdServe([]string{"-workload", "serve-api", "-policy", "bogus"}); err == nil {
		t.Fatal("unknown eviction policy accepted")
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

func TestCmdSlo(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "slo.json")
	trace := filepath.Join(dir, "trace.json")
	if err := cmdSlo([]string{"-workload", "serve-api", "-strategies", "cu",
		"-streams", "2", "-bursts", "2", "-burst", "6", "-pressures", "0,50",
		"-o", out, "-trace", trace}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema    string `json:"schema"`
		Streams   int    `json:"streams"`
		Pressures []int  `json:"pressures"`
		Entries   []any  `json:"entries"`
		Overhead  []any  `json:"overhead"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("SLO JSON: %v", err)
	}
	if rep.Schema != "nimage.slo/v1" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if rep.Streams != 2 || len(rep.Pressures) != 2 {
		t.Fatalf("streams=%d pressures=%v", rep.Streams, rep.Pressures)
	}
	// 1 workload × 2 layouts (baseline + cu) × 2 pressures.
	if len(rep.Entries) != 4 || len(rep.Overhead) != 1 {
		t.Fatalf("entries=%d overhead=%d", len(rep.Entries), len(rep.Overhead))
	}
	st, err := os.Stat(trace)
	if err != nil || st.Size() == 0 {
		t.Errorf("Chrome trace missing or empty: %v", err)
	}
	if err := cmdSlo([]string{"-workload", "Sieve", "-bursts", "2", "-burst", "4"}); err == nil {
		t.Fatal("non-serve workload accepted")
	}
	if err := cmdSlo([]string{"-workload", "serve-api", "-policy", "bogus"}); err == nil {
		t.Fatal("unknown eviction policy accepted")
	}
}

func TestCmdSloRejectsBadFlags(t *testing.T) {
	cases := map[string][]string{
		"streams-zero":       {"-workload", "serve-api", "-streams", "0"},
		"streams-negative":   {"-workload", "serve-api", "-streams", "-2"},
		"pressures-over-100": {"-workload", "serve-api", "-pressures", "0,140"},
		"pressures-garbage":  {"-workload", "serve-api", "-pressures", "0,abc"},
		"pressures-negative": {"-workload", "serve-api", "-pressures", "-10"},
		"bursts-zero":        {"-workload", "serve-api", "-bursts", "0"},
		"burst-negative":     {"-workload", "serve-api", "-burst", "-4"},
		"budget-negative":    {"-workload", "serve-api", "-budget", "-1"},
		"hot-pct-over-100":   {"-workload", "serve-api", "-hot-pct", "120"},
		"slo-bad-quantile":   {"-workload", "serve-api", "-slo", "p0=1ms"},
		"slo-bad-duration":   {"-workload", "serve-api", "-slo", "p99=fast"},
	}
	for name, args := range cases {
		err := cmdSlo(args)
		if err == nil {
			t.Errorf("%s: accepted %v", name, args)
			continue
		}
		if !strings.Contains(err.Error(), "must") {
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
	if err := cmdFleet([]string{"-tenants", "2", "-policy", "bogus"}); err == nil {
		t.Fatal("unknown eviction policy accepted")
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

func TestCmdTune(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "search.json")
	if err := cmdTune([]string{"-workload", "serve-api", "-budget-iters", "1",
		"-top-k", "1", "-pressures", "30", "-o", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema     string `json:"schema"`
		Workload   string `json:"workload"`
		Iterations []any  `json:"iterations"`
		Final      struct {
			Candidate string `json:"candidate"`
			Symbols   int    `json:"symbols"`
		} `json:"final"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("search JSON: %v", err)
	}
	if rep.Schema != "nimage.search/v1" || rep.Workload != "serve-api" {
		t.Fatalf("schema=%q workload=%q", rep.Schema, rep.Workload)
	}
	// The seed round plus one budgeted iteration.
	if len(rep.Iterations) != 2 {
		t.Fatalf("iterations=%d, want 2", len(rep.Iterations))
	}
	if rep.Final.Candidate == "" || rep.Final.Symbols == 0 {
		t.Fatalf("empty final block: %+v", rep.Final)
	}
	if err := cmdTune([]string{"-workload", "Sieve"}); err == nil {
		t.Fatal("non-serve workload accepted")
	}
	if err := cmdTune([]string{"-workload", "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestCmdTuneRejectsBadFlags(t *testing.T) {
	cases := map[string][]string{
		"budget-zero":        {"-workload", "serve-api", "-budget-iters", "0"},
		"budget-negative":    {"-workload", "serve-api", "-budget-iters", "-1"},
		"budget-huge":        {"-workload", "serve-api", "-budget-iters", "99999"},
		"top-k-zero":         {"-workload", "serve-api", "-top-k", "0"},
		"top-k-huge":         {"-workload", "serve-api", "-top-k", "99999"},
		"pressures-over-100": {"-workload", "serve-api", "-pressures", "30,140"},
		"pressures-garbage":  {"-workload", "serve-api", "-pressures", "30,abc"},
		"pressures-negative": {"-workload", "serve-api", "-pressures", "-30"},
		"slo-bad-quantile":   {"-workload", "serve-api", "-slo", "p0=1ms"},
		"slo-bad-duration":   {"-workload", "serve-api", "-slo", "p99=fast"},
	}
	for name, args := range cases {
		err := cmdTune(args)
		if err == nil {
			t.Errorf("%s: accepted %v", name, args)
			continue
		}
		if !strings.Contains(err.Error(), "must") {
			t.Errorf("%s: unhelpful error %v", name, err)
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
	for _, s := range []string{core.StrategyPettisHansen, core.StrategyC3} {
		if err := cmdProfile([]string{"-workload", "Bounce", "-strategy", s, "-out", filepath.Join(dir, "x.csv")}); err == nil {
			t.Errorf("strategy %q accepted", s)
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
