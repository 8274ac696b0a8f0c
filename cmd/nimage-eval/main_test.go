package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"nimage/internal/core"
	"nimage/internal/eval"
)

// TestRunFigure2Filtered smoke-tests the CLI end to end on a single
// workload: the figure CSV and the benchmark-baseline document must land in
// the chosen paths with the committed schema.
func TestRunFigure2Filtered(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCH_baseline.json")
	err := run([]string{
		"-figure", "2", "-workloads", "Bounce",
		"-builds", "1",
		"-out", dir, "-bench", bench,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "figure2-pagefaults-awfy.csv")); err != nil {
		t.Errorf("figure CSV missing: %v", err)
	}
	data, err := os.ReadFile(bench)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != benchSchema {
		t.Errorf("schema = %q, want %q", doc.Schema, benchSchema)
	}
	geo := doc.Figures["figure2-pagefaults-awfy"]
	if len(geo) == 0 {
		t.Fatalf("no geomeans recorded: %+v", doc.Figures)
	}
	for s, f := range geo {
		if f <= 0 {
			t.Errorf("strategy %s: non-positive geomean factor %v", s, f)
		}
	}
}

// TestRunReportFiltered smoke-tests the observability report path: the
// report document must carry its schema and at least one entry for the
// selected workload.
func TestRunReportFiltered(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-figure", "report", "-workloads", "Bounce",
		"-out", dir, "-bench", "",
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  string `json:"schema"`
		Entries []struct {
			Workload string `json:"workload"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != eval.ReportSchema {
		t.Errorf("schema = %q, want %q", doc.Schema, eval.ReportSchema)
	}
	if len(doc.Entries) == 0 {
		t.Fatal("report has no entries")
	}
	for _, e := range doc.Entries {
		if e.Workload != "Bounce" {
			t.Errorf("unexpected workload %q with -workloads Bounce", e.Workload)
		}
	}
}

// TestRunServeFiltered smoke-tests the serve figure: latency, re-fault,
// and scorecard tables must land for both pressure levels, with geomeans
// in the benchmark-baseline document and the serve slice in
// BENCH_serve.json.
func TestRunServeFiltered(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCH_baseline.json")
	err := run([]string{
		"-figure", "serve", "-workloads", "serve-api",
		"-builds", "1",
		"-out", dir, "-bench", bench,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{
		"serve-latency-p30.csv", "serve-refaults-p30.csv",
		"serve-latency-p70.csv", "serve-refaults-p70.csv",
		"serve-scorecards-p30.csv", "serve-scorecards-p70.csv",
	} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("figure CSV %s missing: %v", f, err)
		}
	}
	data, err := os.ReadFile(bench)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Figures["serve-latency-p30"]) == 0 || len(doc.Figures["serve-latency-p70"]) == 0 {
		t.Fatalf("no serve geomeans recorded: %+v", doc.Figures)
	}
	if len(doc.Figures["serve-scorecards-p30"]) == 0 {
		t.Fatalf("no scorecard geomeans recorded: %+v", doc.Figures)
	}

	sdata, err := os.ReadFile(filepath.Join(dir, "BENCH_serve.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sdoc benchDoc
	if err := json.Unmarshal(sdata, &sdoc); err != nil {
		t.Fatal(err)
	}
	if sdoc.Schema != benchSchema {
		t.Errorf("BENCH_serve schema = %q, want %q", sdoc.Schema, benchSchema)
	}
	// Re-fault geomeans can be legitimately absent (a fully degenerate
	// zero-refault column at low pressure), so only latency and scorecard
	// figures are required.
	for _, key := range []string{
		"serve-latency-p30", "serve-scorecards-p30",
		"serve-latency-p70", "serve-scorecards-p70",
	} {
		if len(sdoc.Figures[key]) == 0 {
			t.Errorf("BENCH_serve figure %s missing: %+v", key, sdoc.Figures)
		}
	}
	for key, geo := range sdoc.Figures {
		if !strings.HasPrefix(key, "serve-") {
			t.Errorf("non-serve figure %q in BENCH_serve.json", key)
		}
		for s, f := range geo {
			if f <= 0 {
				t.Errorf("%s: strategy %s: non-positive geomean %v", key, s, f)
			}
		}
	}
}

// TestRunSloFiltered smoke-tests the SLO observatory figure: the
// nimage.slo/v1 document and the per-pressure attainment CSVs must land
// in the chosen output directory, with entries for every default
// pressure level and the telemetry-overhead control alongside.
func TestRunSloFiltered(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-figure", "slo", "-workloads", "serve-api",
		"-builds", "1",
		"-streams", "2", "-slo-bursts", "2",
		"-out", dir, "-bench", "",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{
		"serve-slo-p0.csv", "serve-slo-p30.csv", "serve-slo-p70.csv",
	} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("figure CSV %s missing: %v", f, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_slo.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema    string `json:"schema"`
		Streams   int    `json:"streams"`
		Pressures []int  `json:"pressures"`
		Entries   []struct {
			PressurePct int `json:"pressure_pct"`
		} `json:"entries"`
		Overhead []struct {
			SimIdentical bool `json:"sim_identical"`
		} `json:"overhead"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "nimage.slo/v1" {
		t.Errorf("schema = %q", doc.Schema)
	}
	if doc.Streams != 2 {
		t.Errorf("streams = %d, want 2", doc.Streams)
	}
	seen := map[int]bool{}
	for _, e := range doc.Entries {
		seen[e.PressurePct] = true
	}
	for _, p := range []int{0, 30, 70} {
		if !seen[p] {
			t.Errorf("no entries at pressure %d%%: %+v", p, doc.Pressures)
		}
	}
	if len(doc.Overhead) == 0 {
		t.Fatal("no telemetry-overhead control recorded")
	}
	for _, o := range doc.Overhead {
		if !o.SimIdentical {
			t.Error("telemetry on/off runs diverged in simulated outcome")
		}
	}
}

func TestRunSearchFiltered(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-figure", "search", "-workloads", "serve-api",
		"-builds", "1",
		"-search-iters", "1", "-search-topk", "1",
		"-out", dir, "-bench", "",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "search-iterations.csv")); err != nil {
		t.Errorf("iteration CSV missing: %v", err)
	}
	jdata, err := os.ReadFile(filepath.Join(dir, "search-serve-api.json"))
	if err != nil {
		t.Fatal(err)
	}
	var journal struct {
		Schema string `json:"schema"`
		Final  struct {
			Candidate string `json:"candidate"`
			Attained  int    `json:"attained"`
			Targets   int    `json:"targets"`
		} `json:"final"`
	}
	if err := json.Unmarshal(jdata, &journal); err != nil {
		t.Fatal(err)
	}
	if journal.Schema != "nimage.search/v1" || journal.Final.Candidate == "" {
		t.Errorf("bad journal: schema=%q final=%+v", journal.Schema, journal.Final)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_search.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  string                        `json:"schema"`
		Figures map[string]map[string]float64 `json:"figures"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "nimage.bench/v1" {
		t.Errorf("schema = %q", doc.Schema)
	}
	// The acceptance criterion of the figure: at both swept pressures the
	// searched layout's attainment is >= the best seed's.
	for _, p := range []int{30, 70} {
		att := doc.Figures[fmt.Sprintf("search-attained-p%d", p)]
		if att == nil {
			t.Fatalf("no search-attained-p%d figure: %v", p, doc.Figures)
		}
		for _, s := range []string{"c3", "ext-tsp"} {
			if att["slo-search"] < att[s] {
				t.Errorf("p%d: slo-search attains %.3f, below %s's %.3f",
					p, att["slo-search"], s, att[s])
			}
		}
		if doc.Figures[fmt.Sprintf("search-refault-factor-p%d", p)] == nil {
			t.Errorf("no search-refault-factor-p%d figure", p)
		}
	}
}

// TestRunFleetFiltered smoke-tests the fleet observatory figure: the
// bench slice and the interference CSV must land, every attainment and
// isolation figure must be sane, and the graph-derived tenants must
// attain at least the combined-heuristic tenant's SLO cells.
func TestRunFleetFiltered(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-figure", "fleet",
		"-builds", "1",
		"-tenants", "2,4", "-budget", "192", "-bursts", "3",
		"-out", dir, "-bench", "",
	})
	if err != nil {
		t.Fatal(err)
	}
	cdata, err := os.ReadFile(filepath.Join(dir, "fleet-interference.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(cdata)), "\n")
	// Header plus (2+1)² cells minus the omitted owner-0 column per mix:
	// 3×2 rows for 2 tenants, 5×4 for 4 tenants.
	if want := 1 + 3*2 + 5*4; len(lines) != want {
		t.Errorf("interference CSV rows = %d, want %d:\n%s", len(lines), want, cdata)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_fleet.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  string                        `json:"schema"`
		Figures map[string]map[string]float64 `json:"figures"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "nimage.bench/v1" {
		t.Errorf("schema = %q", doc.Schema)
	}
	for _, n := range []int{2, 4} {
		att := doc.Figures[fmt.Sprintf("fleet-attained-t%d", n)]
		if len(att) == 0 {
			t.Fatalf("no fleet-attained-t%d figure: %v", n, doc.Figures)
		}
		// The acceptance criterion: graph-based tenants hold at least the
		// combined heuristic's attainment inside the shared cache.
		if base, ok := att["cu+heap path"]; ok {
			for s, f := range att {
				if s != "cu+heap path" && f < base {
					t.Errorf("t%d: %s attains %.3f, below cu+heap path's %.3f", n, s, f, base)
				}
			}
		}
		iso := doc.Figures[fmt.Sprintf("fleet-isolation-t%d", n)]
		for s, f := range iso {
			if f <= 0 {
				t.Errorf("t%d: strategy %s: non-positive isolation geomean %v", n, s, f)
			}
		}
	}
	fair := doc.Figures["fleet-fairness"]
	for mix, f := range fair {
		if f <= 0 || f > 1 {
			t.Errorf("fairness %s = %v, want in (0, 1]", mix, f)
		}
	}
}

// TestRunRejectsBadFleetFlags: fleet knobs are rejected out of range,
// not clamped.
func TestRunRejectsBadFleetFlags(t *testing.T) {
	cases := map[string][]string{
		"tenants-one":      {"-tenants", "1"},
		"tenants-zero":     {"-tenants", "2,0"},
		"tenants-negative": {"-tenants", "-4"},
		"tenants-garbage":  {"-tenants", "2,abc"},
		"tenants-empty":    {"-tenants", ","},
		"quota-negative":   {"-quota", "-1"},
		"quota-over-100":   {"-quota", "101"},
		"budget-zero":      {"-budget", "0"},
		"budget-negative":  {"-budget", "-64"},
		"bursts-zero":      {"-bursts", "0"},
		"bursts-negative":  {"-bursts", "-3"},
	}
	for name, extra := range cases {
		args := append([]string{"-figure", "fleet", "-out", t.TempDir(), "-bench", ""}, extra...)
		err := run(args)
		if err == nil {
			t.Errorf("%s: accepted %v", name, extra)
			continue
		}
		if !strings.Contains(err.Error(), "must") {
			t.Errorf("%s: unhelpful error %v", name, err)
		}
	}
}

// TestRunRejectsUnknownWorkload: filter names must resolve.
func TestRunRejectsUnknownWorkload(t *testing.T) {
	if err := run([]string{"-figure", "2", "-workloads", "NoSuch", "-out", t.TempDir(), "-bench", ""}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestRunRejectsBadSizing: harness sizing is rejected out of range, not
// clamped — a zero build count would silently measure nothing, and
// negative workers are meaningless.
func TestRunRejectsBadSizing(t *testing.T) {
	cases := map[string][]string{
		"builds-zero":      {"-builds", "0"},
		"builds-negative":  {"-builds", "-3"},
		"workers-negative": {"-workers", "-2"},
		"streams-zero":     {"-streams", "0"},
		"streams-negative": {"-streams", "-2"},
		"slo-bursts-neg":   {"-slo-bursts", "-1"},
		"slo-bad-target":   {"-slo", "p0=1ms"},
		"search-iters-0":   {"-search-iters", "0"},
		"search-iters-big": {"-search-iters", "99999"},
		"search-topk-0":    {"-search-topk", "0"},
		"search-topk-big":  {"-search-topk", "99999"},
		"device-typo":      {"-device", "tape"},
		"figure-unknown":   {"-figure", "7"},
	}
	for name, extra := range cases {
		args := append([]string{"-figure", "2", "-workloads", "Bounce", "-out", t.TempDir(), "-bench", ""}, extra...)
		err := run(args)
		if err == nil {
			t.Errorf("%s: accepted %v", name, extra)
			continue
		}
		if !strings.Contains(err.Error(), "must be") {
			t.Errorf("%s: unhelpful error %v", name, err)
		}
	}
}

// TestCommittedColdStartColumnsDiscriminate reads the committed
// BENCH_baseline.json: across the four cold-start figures, no two
// strategies may carry identical geomeans on every figure — a column
// that duplicates another everywhere measures nothing the other does not.
func TestCommittedColdStartColumnsDiscriminate(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	keys := []string{
		"figure2-pagefaults-awfy", "figure3-pagefaults-microservices",
		"figure4-speedup-microservices", "figure5-speedup-awfy",
	}
	var strategies []string
	for s := range doc.Figures[keys[0]] {
		strategies = append(strategies, s)
	}
	sort.Strings(strategies)
	if len(strategies) < 2 {
		t.Fatalf("%s has %d strategies", keys[0], len(strategies))
	}
	for i, a := range strategies {
		for _, b := range strategies[i+1:] {
			same := true
			for _, k := range keys {
				fa, okA := doc.Figures[k][a]
				fb, okB := doc.Figures[k][b]
				if !okA || !okB {
					t.Fatalf("%s lacks %s or %s", k, a, b)
				}
				same = same && fa == fb
			}
			if same {
				t.Errorf("%s and %s carry identical values on all four cold-start figures", a, b)
			}
		}
	}
}

// TestCommittedPaperTrends checks the paper's trends (EXPERIMENTS.md) on
// the committed cold-start figures: the geomeans in BENCH_baseline.json
// and the per-benchmark factors in the figure CSVs. cu+heap path is
// compared with the code strategies only on the speedup Figures 4 and 5:
// Figures 2 and 3 count the faults of the sections each strategy reorders,
// so cu+heap path's text+heap sum is not comparable with cu's text count.
func TestCommittedPaperTrends(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	best := func(geo map[string]float64, text, heap bool) (string, float64) {
		name, max := "", 0.0
		for s, v := range geo {
			if info, _ := core.StrategyByName(s); info.Text == text && info.Heap == heap && v > max {
				name, max = s, v
			}
		}
		return name, max
	}
	for _, key := range []string{
		"figure2-pagefaults-awfy", "figure3-pagefaults-microservices",
		"figure4-speedup-microservices", "figure5-speedup-awfy",
	} {
		geo := doc.Figures[key]
		if len(geo) != len(eval.Strategies()) {
			t.Fatalf("%s has %d strategies, want %d", key, len(geo), len(eval.Strategies()))
		}
		at := func(s string) float64 { return geo[s] }
		if strings.Contains(key, "speedup") {
			for _, s := range []string{core.StrategyCU, core.StrategyMethod} {
				if at(core.StrategyCombined) < at(s) {
					t.Errorf("%s: cu+heap path %.4f < %s %.4f", key, at(core.StrategyCombined), s, at(s))
				}
			}
		}
		code, codeBest := best(geo, true, false)
		heap, heapBest := best(geo, false, true)
		if codeBest < heapBest {
			t.Errorf("%s: best code strategy %s %.4f < best heap strategy %s %.4f", key, code, codeBest, heap, heapBest)
		}
		if at(core.StrategyCU) < at(core.StrategyMethod) {
			t.Errorf("%s: cu %.4f < method %.4f", key, at(core.StrategyCU), at(core.StrategyMethod))
		}
		if heap != core.StrategyHeapPath {
			t.Errorf("%s: best heap strategy is %s %.4f, not heap path %.4f", key, heap, heapBest, at(core.StrategyHeapPath))
		}

		rows, err := os.ReadFile(filepath.Join("..", "..", "output", key+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(rows)), "\n")[1:] {
			f := strings.Split(line, ",")
			factor, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				t.Fatalf("%s: %q: %v", key, line, err)
			}
			if factor < 0.95 {
				t.Errorf("%s: %s/%s slows down to %.4f×", key, f[0], f[1], factor)
			}
		}
	}
}
