package eval

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"nimage/internal/core"
	"nimage/internal/image"
	"nimage/internal/profiler"
	"nimage/internal/workloads"
)

func TestWorkersDefault(t *testing.T) {
	h := NewHarness(DefaultConfig())
	if got := h.Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	cfg := DefaultConfig()
	cfg.Workers = 3
	if got := NewHarness(cfg).Workers(); got != 3 {
		t.Errorf("Workers() = %d, want 3", got)
	}
}

// TestParallelDeterminism is the scheduler's core contract: the full figure
// pipeline produces byte-identical CSV output regardless of worker count.
func TestParallelDeterminism(t *testing.T) {
	var ws []workloads.Workload
	for _, n := range []string{"Sieve", "Towers"} {
		w, err := workloads.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	run := func(workers int) *Table {
		cfg := DefaultConfig()
		cfg.Builds = 2
		cfg.Workers = workers
		h := NewHarness(cfg)
		tbl, err := h.PageFaultTable("determinism", ws)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	serial := run(1)
	parallel := run(8)
	if s, p := serial.CSV(), parallel.CSV(); s != p {
		t.Errorf("CSV differs between -workers 1 and -workers 8:\n--- serial ---\n%s--- parallel ---\n%s", s, p)
	}
	for _, s := range Strategies() {
		a, b := serial.Get(GeoMeanRow, s), parallel.Get(GeoMeanRow, s)
		if a == nil || b == nil {
			t.Fatalf("missing geomean for %s", s)
		}
		if a.Factor != b.Factor {
			t.Errorf("geomean %s: %v (serial) != %v (parallel)", s, a.Factor, b.Factor)
		}
	}
}

// TestConcurrentHarnessStress hammers one harness from many goroutines
// (meaningful under -race): all callers must get the identical memoized
// outcome, and singleflight must have run each measurement exactly once —
// the identity layout included, whether reached as MeasureBaseline or as
// MeasureStrategy(w, LayoutBaseline).
func TestConcurrentHarnessStress(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	cfg.Workers = 4
	h := NewHarness(cfg)
	w, err := workloads.ByName("Sieve")
	if err != nil {
		t.Fatal(err)
	}

	const callers = 16
	bases := make([]*StrategyOutcome, callers)
	baseMeasures := make([][]RunMeasure, callers)
	strats := make([]*StrategyOutcome, callers)
	errs := make([]error, 3*callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bases[i], errs[3*i] = h.MeasureStrategy(w, LayoutBaseline)
			baseMeasures[i], errs[3*i+1] = h.MeasureBaseline(w)
			strats[i], errs[3*i+2] = h.MeasureStrategy(w, core.StrategyCU)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < callers; i++ {
		if bases[i] != bases[0] {
			t.Fatal("concurrent callers got distinct baseline outcomes")
		}
		if &baseMeasures[i][0] != &bases[0].Measures[0] {
			t.Fatal("MeasureBaseline did not share the identity layout's measures")
		}
		if strats[i] != strats[0] {
			t.Fatal("concurrent callers got distinct strategy outcomes")
		}
	}
	// One baseline build + one strategy build — duplicates would mean the
	// memoization raced.
	if got := h.sched.buildTasks.Load(); got != 2 {
		t.Errorf("executed %d build tasks, want 2", got)
	}
	if h.WorkDuration() <= 0 {
		t.Error("WorkDuration not accounted")
	}
}

// TestIdentityLayout pins the baseline as a layout: MeasureStrategy over
// LayoutBaseline measures the regular builds — measure for measure what
// MeasureBaseline returns and what a regular build at the baseline seed
// measures — and runs no profiling.
func TestIdentityLayout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 2
	h := NewHarness(cfg)
	w, err := workloads.ByName("Towers")
	if err != nil {
		t.Fatal(err)
	}
	out, err := h.MeasureStrategy(w, LayoutBaseline)
	if err != nil {
		t.Fatal(err)
	}
	base, err := h.MeasureBaseline(w)
	if err != nil {
		t.Fatal(err)
	}
	if out.Strategy != LayoutBaseline {
		t.Errorf("strategy = %q, want %q", out.Strategy, LayoutBaseline)
	}
	if len(out.Profiling) != 0 {
		t.Errorf("identity layout ran %d profiling runs", len(out.Profiling))
	}
	if len(base) != cfg.Builds || len(out.Measures) != cfg.Builds {
		t.Fatalf("measures: %d and %d, want %d", len(base), len(out.Measures), cfg.Builds)
	}
	for bld := range base {
		if !reflect.DeepEqual(base[bld], out.Measures[bld]) {
			t.Errorf("build %d: MeasureBaseline %+v != MeasureStrategy %+v", bld, base[bld], out.Measures[bld])
		}
		img, err := image.Build(h.Program(w), image.Options{
			Kind: image.KindRegular, Compiler: cfg.Compiler, BuildSeed: baselineSeed(bld),
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := h.measureImage(img, w, LayoutBaseline)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, base[bld]) {
			t.Errorf("build %d: regular build measures %+v, baseline %+v", bld, m, base[bld])
		}
	}
}

// TestSingleflightCollapsesCalls exercises once() directly: overlapping
// callers of one key share a single execution and its error.
func TestSingleflightCollapsesCalls(t *testing.T) {
	h := NewHarness(DefaultConfig())
	var calls int
	release := make(chan struct{})
	entered := make(chan struct{})
	failure := errors.New("boom")

	go func() {
		h.once("k", func() error {
			calls++
			close(entered)
			<-release
			return failure
		})
	}()
	<-entered

	const waiters = 8
	errs := make([]error, waiters)
	var wg, ready sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		ready.Add(1)
		go func(i int) {
			defer wg.Done()
			ready.Done()
			errs[i] = h.once("k", func() error {
				t.Error("duplicate execution while key in flight")
				return nil
			})
		}(i)
	}
	// The key stays in flight until release; give the waiters time to block
	// on it before letting the first caller finish.
	ready.Wait()
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != failure {
			t.Errorf("waiter %d got %v, want shared error", i, err)
		}
	}
	if calls != 1 {
		t.Errorf("fn ran %d times, want 1", calls)
	}
	// After completion the key is retryable (failures are not cached).
	if err := h.once("k", func() error { return nil }); err != nil {
		t.Errorf("retry after failure: %v", err)
	}
}

func TestForEachReportsLowestIndexError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 4
	h := NewHarness(cfg)
	for trial := 0; trial < 10; trial++ {
		err := h.forEach(8, func(i int) error {
			if i == 3 || i == 6 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 3 failed" {
			t.Fatalf("trial %d: err = %v, want deterministic lowest-index error", trial, err)
		}
	}
}

// TestAccessedFractionGuard covers the NaN regression: an image with an
// empty snapshot must yield 0, not 0/0, so the measures stay marshalable.
func TestAccessedFractionGuard(t *testing.T) {
	if got := accessedFraction(0, 0); got != 0 {
		t.Errorf("accessedFraction(0,0) = %v", got)
	}
	if got := accessedFraction(5, 0); got != 0 {
		t.Errorf("accessedFraction(5,0) = %v", got)
	}
	if got := accessedFraction(1, 4); got != 0.25 {
		t.Errorf("accessedFraction(1,4) = %v", got)
	}
	m := RunMeasure{AccessedFrac: accessedFraction(3, 0)}
	if _, err := json.Marshal(m); err != nil {
		t.Errorf("measure with guarded fraction must marshal: %v", err)
	}
}

// TestProfileOncePerKind: the cold-start figures profile each (workload,
// build, probe kind) once. Their six strategies need 7 profiling runs per
// (workload, build) — cu+heap path needs two — but only 3 are distinct
// (cu, method, heap), and every strategy still reports all of its runs.
// Each shared profile equals the one an uncached pipeline computes.
func TestProfileOncePerKind(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 2
	h := NewHarness(cfg)
	var ws []workloads.Workload
	for _, name := range []string{"Towers", "micronaut"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	if err := h.Prefetch(ws, Strategies()); err != nil {
		t.Fatal(err)
	}
	if got, want := h.sched.profileRuns.Load(), int64(3*len(ws)*cfg.Builds); got != want {
		t.Errorf("figures made %d profiling runs, want %d", got, want)
	}
	reported := 0
	for _, s := range Strategies() {
		out, err := h.MeasureStrategy(ws[1], s)
		if err != nil {
			t.Fatal(err)
		}
		reported += len(out.Profiling)
	}
	if want := 7 * cfg.Builds; reported != want {
		t.Errorf("strategies report %d profiling runs, want %d", reported, want)
	}

	w, bld := ws[1], 1
	res, _, err := h.bake(w, core.StrategyCombined, bld, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := image.BuildOptimized(h.Program(w), image.PipelineOptions{
		Compiler: cfg.Compiler, Strategy: core.StrategyCombined,
		InstrumentedSeed: instrumentedSeed(bld), OptimizedSeed: optimizedSeed(bld),
		Mode: profiler.ModeFor(w.Service), Args: w.Args, Service: w.Service,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Runs, want.Runs) || !reflect.DeepEqual(res.CodeProfile, want.CodeProfile) ||
		!reflect.DeepEqual(res.HeapProfile, want.HeapProfile) {
		t.Error("shared profiles differ from the uncached pipeline's")
	}
	if got := h.sched.profileRuns.Load(); got != int64(3*len(ws)*cfg.Builds) {
		t.Errorf("a repeated bake made %d more profiling runs", got-int64(3*len(ws)*cfg.Builds))
	}
}

// TestConcurrentStrategiesShareProfile: cu and cu+heap path measured
// concurrently on one build make 2 profiling runs (cu, heap), not 3.
func TestConcurrentStrategiesShareProfile(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	cfg.Workers = 2
	h := NewHarness(cfg)
	w, err := workloads.ByName("Towers")
	if err != nil {
		t.Fatal(err)
	}
	strategies := []string{core.StrategyCU, core.StrategyCombined}
	errs := make([]error, len(strategies))
	var wg sync.WaitGroup
	for i, s := range strategies {
		wg.Add(1)
		go func(i int, s string) {
			defer wg.Done()
			_, errs[i] = h.MeasureStrategy(w, s)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := h.sched.profileRuns.Load(); got != 2 {
		t.Errorf("made %d profiling runs, want 2", got)
	}
}
