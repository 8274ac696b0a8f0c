package eval

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"nimage/internal/core"
	"nimage/internal/image"
	"nimage/internal/osim"
	"nimage/internal/workloads"
)

func TestStatsFunctions(t *testing.T) {
	xs := []float64{2, 4, 8}
	if got := Mean(xs); got != 14.0/3 {
		t.Errorf("Mean = %v", got)
	}
	if got := GeoMean(xs); math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean = %v", got)
	}
	if Mean(nil) != 0 || GeoMean(nil) != 0 || StdDev([]float64{1}) != 0 || CI95([]float64{1}) != 0 {
		t.Error("empty/singleton edge cases")
	}
	if GeoMean([]float64{1, -1}) != 0 {
		t.Error("GeoMean with nonpositive input")
	}
	sd := StdDev([]float64{1, 3})
	if math.Abs(sd-math.Sqrt2) > 1e-9 {
		t.Errorf("StdDev = %v", sd)
	}
	// A zero numerator with spread must still report the denominator-scaled
	// uncertainty, not collapse to "no interval at all".
	if got := RatioCI(0, 1, 1, 1); got != 1 {
		t.Errorf("RatioCI zero numerator = %v, want 1", got)
	}
	ci := RatioCI(10, 1, 5, 0.5)
	if ci <= 0 {
		t.Errorf("RatioCI = %v", ci)
	}
}

func TestStatsDegenerateInputs(t *testing.T) {
	// Empty and singleton inputs.
	if Mean(nil) != 0 {
		t.Error("Mean(nil)")
	}
	if Mean([]float64{7}) != 7 {
		t.Error("Mean singleton")
	}
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil)")
	}
	if math.Abs(GeoMean([]float64{3})-3) > 1e-9 {
		t.Error("GeoMean singleton")
	}
	if GeoMean([]float64{0, 2}) != 0 {
		t.Error("GeoMean with zero element")
	}
	if CI95(nil) != 0 || CI95([]float64{5}) != 0 {
		t.Error("CI95 needs n >= 2")
	}
	if ci := CI95([]float64{1, 1, 1}); ci != 0 {
		t.Errorf("CI95 of constant samples = %v", ci)
	}
	// Three builds: Student's t at 2 degrees of freedom, not z = 1.96.
	if ci, want := CI95([]float64{1, 2, 3}), 4.303/math.Sqrt(3); math.Abs(ci-want) > 1e-9 {
		t.Errorf("CI95(1,2,3) = %v, want %v", ci, want)
	}
	// Zero-valued sides of a ratio.
	if !math.IsNaN(RatioCI(1, 1, 0, 1)) {
		t.Error("RatioCI zero denominator must be NaN")
	}
	if !math.IsNaN(RatioCI(0, 0, 0, 0)) {
		t.Error("RatioCI all-zero must be NaN")
	}
	if RatioCI(0, 0, 4, 0) != 0 {
		t.Error("RatioCI exact zeros with nonzero denominator")
	}
}

func TestFactorCellDegenerate(t *testing.T) {
	// An optimized mean of zero cannot yield a finite improvement factor:
	// the cell must be explicitly degenerate, never Factor == 0 ("infinitely
	// worse") as before.
	c := FactorCell("w", "s", []float64{4, 4}, []float64{0, 0})
	if !c.Degenerate {
		t.Fatal("zero optimized mean must mark the cell degenerate")
	}
	if !math.IsNaN(c.Factor) || !math.IsNaN(c.CI) {
		t.Errorf("degenerate cell carries Factor=%v CI=%v, want NaN", c.Factor, c.CI)
	}
	// A healthy cell stays untouched.
	c = FactorCell("w", "s", []float64{4, 4}, []float64{2, 2})
	if c.Degenerate || c.Factor != 2 {
		t.Errorf("healthy cell: %+v", c)
	}

	// Degenerate cells are excluded from geomeans; an all-degenerate column
	// yields a degenerate geomean instead of a panic or a zero.
	tbl := &Table{Strategies: []string{"a", "b"}, Cells: []Cell{
		{Workload: "w1", Strategy: "a", Factor: 2},
		{Workload: "w1", Strategy: "b", Factor: math.NaN(), Degenerate: true},
		{Workload: "w2", Strategy: "a", Factor: 8},
		{Workload: "w2", Strategy: "b", Factor: math.NaN(), Degenerate: true},
	}}
	tbl.AddGeoMean()
	if g := tbl.Get(GeoMeanRow, "a"); g == nil || math.Abs(g.Factor-4) > 1e-9 || g.Degenerate {
		t.Errorf("geomean a = %+v", g)
	}
	if g := tbl.Get(GeoMeanRow, "b"); g == nil || !g.Degenerate || !math.IsNaN(g.Factor) {
		t.Errorf("geomean b = %+v", g)
	}
	// Degenerate cells render as an explicit marker, not a bar of NaN width.
	if r := tbl.Render(); !strings.Contains(r, "n/a (zero mean)") {
		t.Errorf("render lacks degenerate marker:\n%s", r)
	}
}

func TestTableHelpers(t *testing.T) {
	tbl := &Table{
		Title:      "t",
		Metric:     "m",
		Strategies: []string{"a", "b"},
		Cells: []Cell{
			{Workload: "w2", Strategy: "b", Factor: 2},
			{Workload: "w1", Strategy: "a", Factor: 4},
			{Workload: "w1", Strategy: "b", Factor: 1},
			{Workload: "w2", Strategy: "a", Factor: 1},
		},
	}
	tbl.AddGeoMean()
	tbl.SortCells()
	if got := tbl.Get(GeoMeanRow, "a").Factor; math.Abs(got-2) > 1e-9 {
		t.Errorf("geomean a = %v", got)
	}
	ws := tbl.Workloads()
	if len(ws) != 2 || ws[0] != "w1" || ws[1] != "w2" {
		t.Errorf("Workloads = %v", ws)
	}
	// Sorted: w1 rows first, geomean last.
	if tbl.Cells[0].Workload != "w1" || tbl.Cells[len(tbl.Cells)-1].Workload != GeoMeanRow {
		t.Error("SortCells order")
	}
	csv := tbl.CSV()
	if !strings.HasPrefix(csv, "workload,strategy,factor") || !strings.Contains(csv, "w1,a,4.0000") {
		t.Errorf("CSV:\n%s", csv)
	}
	render := tbl.Render()
	for _, want := range []string{"t (m", "w1", "geomean", "#"} {
		if !strings.Contains(render, want) {
			t.Errorf("Render missing %q:\n%s", want, render)
		}
	}
	if tbl.Get("nope", "a") != nil {
		t.Error("Get of missing cell")
	}
}

// smallConfig keeps harness tests fast.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Builds = 1
	return cfg
}

// TestRepeatedColdStartIdentical is why each build is measured once: a
// second cold start of the same image repeats the first exactly, down to
// the per-symbol fault attribution, so extra runs would only replicate
// samples.
func TestRepeatedColdStartIdentical(t *testing.T) {
	cfg := smallConfig()
	cfg.Builds = 2
	cfg.Observe = true
	h := NewHarness(cfg)
	w, err := workloads.ByName("Sieve")
	if err != nil {
		t.Fatal(err)
	}
	img, err := image.Build(h.Program(w), image.Options{
		Kind: image.KindRegular, Compiler: cfg.Compiler, BuildSeed: baselineSeed(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.measureImage(img, w, LayoutBaseline)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.measureImage(img, w, LayoutBaseline)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := scalarMeasures([]RunMeasure{a}), scalarMeasures([]RunMeasure{b})
	if !reflect.DeepEqual(sa, sb) {
		t.Errorf("cold starts of one image differ: %+v vs %+v", sa[0], sb[0])
	}
	if a.Attrib == nil || !reflect.DeepEqual(a.Attrib, b.Attrib) {
		t.Error("attribution tables of two cold starts differ")
	}
	if a.TextFaults == 0 || a.HeapFaults == 0 || a.Time <= 0 {
		t.Errorf("implausible measurement: %+v", sa[0])
	}
	if a.AccessedFrac <= 0 || a.AccessedFrac > 0.5 {
		t.Errorf("accessed fraction = %v", a.AccessedFrac)
	}
	ms, err := h.MeasureBaseline(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != cfg.Builds {
		t.Errorf("measures = %d, want one per build (%d)", len(ms), cfg.Builds)
	}
}

func TestHarnessMemoization(t *testing.T) {
	h := NewHarness(smallConfig())
	w, err := workloads.ByName("Sieve")
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.MeasureBaseline(w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.MeasureBaseline(w)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("baseline not memoized")
	}
	s1, err := h.MeasureStrategy(w, core.StrategyCU)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := h.MeasureStrategy(w, core.StrategyCU)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("strategy outcome not memoized")
	}
}

func TestHarnessStrategyImprovesSieve(t *testing.T) {
	h := NewHarness(smallConfig())
	w, err := workloads.ByName("Sieve")
	if err != nil {
		t.Fatal(err)
	}
	base, err := h.MeasureBaseline(w)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := h.MeasureStrategy(w, core.StrategyCombined)
	if err != nil {
		t.Fatal(err)
	}
	var bs, os []float64
	for _, m := range base {
		bs = append(bs, metricOf(core.StrategyCombined, m))
	}
	for _, m := range opt.Measures {
		os = append(os, metricOf(core.StrategyCombined, m))
	}
	c := FactorCell(w.Name, core.StrategyCombined, bs, os)
	if c.Factor <= 1.1 {
		t.Errorf("combined factor = %v, want > 1.1", c.Factor)
	}
	if opt.CodeMatched == 0 || opt.HeapMatched == 0 {
		t.Errorf("matching stats: code=%d heap=%d", opt.CodeMatched, opt.HeapMatched)
	}
	if len(opt.Profiling) == 0 || opt.Profiling[0].Time <= 0 {
		t.Errorf("profiling runs missing: %+v", opt.Profiling)
	}
}

func TestHarnessServiceWorkload(t *testing.T) {
	h := NewHarness(smallConfig())
	w, err := workloads.ByName("quarkus")
	if err != nil {
		t.Fatal(err)
	}
	base, err := h.MeasureBaseline(w)
	if err != nil {
		t.Fatal(err)
	}
	if base[0].Time <= 0 {
		t.Error("no time-to-first-response")
	}
	opt, err := h.MeasureStrategy(w, core.StrategyCU)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Measures) == 0 {
		t.Fatal("no optimized measures")
	}
	// Services profile with memory-mapped buffers; traces must survive.
	if opt.Profiling[0].TraceWords == 0 {
		t.Error("service trace lost despite memory-mapped mode")
	}
}

func TestMetricOfSelection(t *testing.T) {
	m := RunMeasure{TextFaults: 10, HeapFaults: 4}
	if metricOf(core.StrategyCU, m) != 10 || metricOf(core.StrategyMethod, m) != 10 {
		t.Error("code strategies must use text faults")
	}
	if metricOf(core.StrategyHeapPath, m) != 4 || metricOf(core.StrategyIncremental, m) != 4 {
		t.Error("heap strategies must use heap faults")
	}
	if metricOf(core.StrategyCombined, m) != 14 {
		t.Error("combined must use the sum")
	}
}

func TestFigure6States(t *testing.T) {
	h := NewHarness(smallConfig())
	regular, optimized, err := h.Figure6("Bounce")
	if err != nil {
		t.Fatal(err)
	}
	if len(regular) == 0 || len(regular) != len(optimized) {
		t.Fatalf("grids: %d vs %d", len(regular), len(optimized))
	}
	faults := func(states []osim.PageState) int {
		n := 0
		for _, s := range states {
			if s == osim.PageFaulted {
				n++
			}
		}
		return n
	}
	// The optimized layout must fault strictly fewer .text pages.
	if fo, fr := faults(optimized), faults(regular); fo >= fr {
		t.Errorf("cu layout faults %d >= regular %d", fo, fr)
	}
}

func TestCompilerInfo(t *testing.T) {
	h := NewHarness(smallConfig())
	w, _ := workloads.ByName("Sieve")
	info, err := h.CompilerInfo([]workloads.Workload{w})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info, "Sieve") || !strings.Contains(info, "workload") {
		t.Errorf("info:\n%s", info)
	}
}

func TestAccessedFraction(t *testing.T) {
	h := NewHarness(smallConfig())
	w, _ := workloads.ByName("Towers")
	fr, err := h.AccessedFraction([]workloads.Workload{w})
	if err != nil {
		t.Fatal(err)
	}
	if f := fr["Towers"]; f <= 0.01 || f > 0.5 {
		t.Errorf("accessed fraction = %v", f)
	}
}
