package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"nimage/internal/core"
	"nimage/internal/eval"
	"nimage/internal/obs/attrib"
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

// TestRunProfilesChangeNoOutput: -cpuprofile and -memprofile write
// profiles that decode as pprof with the runtime's sample types, and the
// figure CSV and benchmark document come out byte-identical to a run
// without them.
func TestRunProfilesChangeNoOutput(t *testing.T) {
	plain, profiled := t.TempDir(), t.TempDir()
	args := []string{"-figure", "2", "-workloads", "Bounce", "-builds", "1"}
	if err := run(append(args, "-out", plain, "-bench", filepath.Join(plain, "bench.json"))); err != nil {
		t.Fatal(err)
	}
	cpu, mem := filepath.Join(t.TempDir(), "cpu.pprof"), filepath.Join(t.TempDir(), "mem.pprof")
	if err := run(append(args, "-out", profiled, "-bench", filepath.Join(profiled, "bench.json"),
		"-cpuprofile", cpu, "-memprofile", mem)); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"figure2-pagefaults-awfy.csv", "bench.json"} {
		a, errA := os.ReadFile(filepath.Join(plain, f))
		b, errB := os.ReadFile(filepath.Join(profiled, f))
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v / %v", f, errA, errB)
		}
		if string(a) != string(b) {
			t.Errorf("%s differs with profiling on", f)
		}
	}
	for path, want := range map[string]string{cpu: "cpu", mem: "inuse_space"} {
		fh, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := attrib.ReadPprof(fh)
		fh.Close()
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		var types []string
		for _, st := range p.SampleTypes {
			types = append(types, st.Type)
		}
		if !slices.Contains(types, want) {
			t.Errorf("%s: sample types %v lack %q", filepath.Base(path), types, want)
		}
	}
	if err := run(append(args, "-out", plain, "-bench", "", "-cpuprofile", filepath.Join(plain, "no", "such", "dir"))); err == nil {
		t.Error("an uncreatable -cpuprofile path was accepted")
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

// TestRunServeFiltered smoke-tests the serve figure: latency and re-fault
// tables must land for severe pressure and scorecard tables for both
// pressure levels, with geomeans in the benchmark-baseline document and
// the serve slice in BENCH_serve.json.
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
		"serve-latency-p70.csv", "serve-refaults-p70.csv",
		"serve-scorecards-p30.csv", "serve-scorecards-p70.csv",
	} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("figure CSV %s missing: %v", f, err)
		}
	}
	for _, f := range []string{"serve-latency-p30.csv", "serve-refaults-p30.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err == nil {
			t.Errorf("figure CSV %s written; measured serve tables are p70 only", f)
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
	if len(doc.Figures["serve-latency-p70"]) == 0 {
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
	for _, key := range []string{
		"serve-latency-p70", "serve-refaults-p70",
		"serve-scorecards-p30", "serve-scorecards-p70",
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

// TestRunFleetFiltered smoke-tests the fleet observatory figure: the
// bench slice and the interference CSV must land, and every isolation
// figure must be sane.
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
		iso := doc.Figures[fmt.Sprintf("fleet-isolation-t%d", n)]
		if len(iso) == 0 {
			t.Fatalf("no fleet-isolation-t%d figure: %v", n, doc.Figures)
		}
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
		// Two serve workloads × three fleet layouts: six distinct tenants.
		"tenants-too-many": {"-tenants", "2,8"},
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
		"device-typo":      {"-device", "tape"},
		"figure-unknown":   {"-figure", "7"},
		"figure-search":    {"-figure", "search"},
		"figure-slo":       {"-figure", "slo"},
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

// TestCommittedOutputsFinite: no committed CSV or benchmark document
// holds a NaN or infinite value, and every committed factor table's
// geomean rows name exactly the strategies its BENCH_baseline.json figure
// records, so a geomean the bench document silently drops fails here.
func TestCommittedOutputsFinite(t *testing.T) {
	finite := func(path, field string) {
		if v, err := strconv.ParseFloat(field, 64); err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			t.Errorf("%s: non-finite value %q", filepath.Base(path), field)
		}
	}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case string:
			finite(path, v)
		case []any:
			for _, e := range v {
				walk(path, e)
			}
		case map[string]any:
			for _, e := range v {
				walk(path, e)
			}
		}
	}
	jsons, err := filepath.Glob(filepath.Join("..", "..", "output", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(jsons, filepath.Join("..", "..", "BENCH_baseline.json")) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		walk(path, doc)
	}

	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench benchDoc
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	csvs, err := filepath.Glob(filepath.Join("..", "..", "output", "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	tables := 0
	for _, path := range csvs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		for _, line := range lines[1:] {
			for _, f := range strings.Split(line, ",") {
				finite(path, f)
			}
		}
		if !strings.HasPrefix(lines[0], "workload,strategy,factor,") {
			continue
		}
		tables++
		key := strings.TrimSuffix(filepath.Base(path), ".csv")
		var got []string
		for _, line := range lines[1:] {
			if f := strings.Split(line, ","); f[0] == "geomean" {
				got = append(got, f[1])
			}
		}
		want := make([]string, 0, len(bench.Figures[key]))
		for s := range bench.Figures[key] {
			want = append(want, s)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: geomean strategies %v, BENCH_baseline.json records %v", key, got, want)
		}
	}
	if tables == 0 {
		t.Fatal("no committed factor tables")
	}
}

// TestCommittedServeStrategiesRegistered: the committed serve outputs name
// exactly the registered serve strategies (plus the identity baseline in
// the tables that carry it), so a row of a deleted strategy, or a missing
// row of a new one, fails here rather than only in the reproduction gate.
func TestCommittedServeStrategiesRegistered(t *testing.T) {
	want := core.ServeStrategyNames()
	sort.Strings(want)
	csvs, err := filepath.Glob(filepath.Join("..", "..", "output", "serve-*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(csvs) == 0 {
		t.Fatal("no committed serve CSVs")
	}
	for _, path := range csvs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if h := strings.Split(lines[0], ","); len(h) < 2 || h[1] != "strategy" {
			t.Fatalf("%s: second column is not strategy: %q", path, lines[0])
		}
		seen := map[string]bool{}
		for _, line := range lines[1:] {
			if s := strings.Split(line, ",")[1]; s != eval.LayoutBaseline {
				seen[s] = true
			}
		}
		got := make([]string, 0, len(seen))
		for s := range seen {
			got = append(got, s)
		}
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s: strategies %v, want the serve set %v", filepath.Base(path), got, want)
		}
	}

	data, err := os.ReadFile(filepath.Join("..", "..", "output", "BENCH_serve.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Figures) == 0 {
		t.Fatal("BENCH_serve.json has no figures")
	}
	for key, geo := range doc.Figures {
		for s := range geo {
			if !slices.Contains(want, s) {
				t.Errorf("BENCH_serve.json %s: %q is not a registered serve strategy", key, s)
			}
		}
	}
}
