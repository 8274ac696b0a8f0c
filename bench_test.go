// Benchmarks regenerating every table and figure of the paper's evaluation
// (Sec. 7), plus ablations of the design choices DESIGN.md calls out.
//
// Each figure benchmark executes the full measurement pipeline for its
// workloads/strategies once per b.N iteration and reports the resulting
// factors as custom metrics (the paper's factors are M_baseline/M_optimized,
// higher is better), so `go test -bench=.` reproduces the evaluation and
// prints the numbers EXPERIMENTS.md records. Wall-clock time per iteration
// is the cost of the whole pipeline (builds + profiling + measured runs),
// not of a single program start.
package nimage_test

import (
	"fmt"
	"math"
	"testing"

	"nimage"
	"nimage/internal/core"
	"nimage/internal/eval"
	"nimage/internal/graal"
	"nimage/internal/heap"
	"nimage/internal/image"
	"nimage/internal/ir"
	"nimage/internal/murmur"
	"nimage/internal/obs/affinity"
	"nimage/internal/osim"
	"nimage/internal/profiler"
	"nimage/internal/vm"
	"nimage/internal/workloads"
)

// benchConfig is the reduced protocol used by the benchmarks (the paper
// uses 10 builds; nimage-eval exposes the build count).
func benchConfig() eval.Config {
	cfg := eval.DefaultConfig()
	cfg.Builds = 2
	return cfg
}

// reportTable turns a figure table's geomean row into benchmark metrics.
func reportTable(b *testing.B, t *eval.Table) {
	b.Helper()
	for _, s := range t.Strategies {
		c := t.Get(eval.GeoMeanRow, s)
		if c == nil {
			b.Fatalf("no geomean cell for %s", s)
		}
		b.ReportMetric(c.Factor, "x-geomean/"+metricName(s))
	}
}

func metricName(s string) string {
	switch s {
	case core.StrategyIncremental:
		return "incremental"
	case core.StrategyStructural:
		return "structural"
	case core.StrategyHeapPath:
		return "heappath"
	case core.StrategyCombined:
		return "combined"
	default:
		return s
	}
}

// BenchmarkFigure2PageFaultsAWFY regenerates Fig. 2: page-fault reduction
// of every ordering strategy on the 14 AWFY benchmarks.
func BenchmarkFigure2PageFaultsAWFY(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := eval.NewHarness(benchConfig())
		t, err := h.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, t)
	}
}

// BenchmarkFigure3PageFaultsMicroservices regenerates Fig. 3: page-fault
// reduction on micronaut/quarkus/spring.
func BenchmarkFigure3PageFaultsMicroservices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := eval.NewHarness(benchConfig())
		t, err := h.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, t)
	}
}

// BenchmarkFigure4SpeedupMicroservices regenerates Fig. 4: time-to-first-
// response speedup on the microservices.
func BenchmarkFigure4SpeedupMicroservices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := eval.NewHarness(benchConfig())
		t, err := h.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, t)
	}
}

// BenchmarkFigure5SpeedupAWFY regenerates Fig. 5: end-to-end execution-time
// speedup on AWFY.
func BenchmarkFigure5SpeedupAWFY(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := eval.NewHarness(benchConfig())
		t, err := h.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, t)
	}
}

// BenchmarkProfilingOverhead regenerates the Sec. 7.4 table: instrumented
// vs regular run time per instrumentation kind, on AWFY (dump-on-full) and
// the microservices (memory-mapped).
func BenchmarkProfilingOverhead(b *testing.B) {
	suites := []struct {
		name string
		ws   []workloads.Workload
	}{
		{"awfy", workloads.AWFY()},
		{"microservices", workloads.Microservices()},
	}
	for _, suite := range suites {
		b.Run(suite.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := eval.NewHarness(benchConfig())
				t, err := h.Overhead(suite.ws)
				if err != nil {
					b.Fatal(err)
				}
				for _, g := range eval.OverheadGroups {
					c := t.Get(eval.GeoMeanRow, g)
					b.ReportMetric(c.Factor, "x-overhead/"+g)
				}
			}
		})
	}
}

// BenchmarkAccessedObjectFraction regenerates the Sec. 7.2 statistic: the
// fraction of heap-snapshot objects an AWFY run accesses (paper: ~4%).
func BenchmarkAccessedObjectFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.Builds = 1
		h := eval.NewHarness(cfg)
		fr, err := h.AccessedFraction(workloads.AWFY())
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, f := range fr {
			sum += f
		}
		b.ReportMetric(100*sum/float64(len(fr)), "%-accessed")
	}
}

// BenchmarkFigure6Visualization regenerates the Fig. 6 page-grid data for
// Bounce and reports the faulted-page counts of the two layouts.
func BenchmarkFigure6Visualization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		h := eval.NewHarness(cfg)
		regular, optimized, err := h.Figure6("Bounce")
		if err != nil {
			b.Fatal(err)
		}
		count := func(st []osim.PageState) (f float64) {
			for _, s := range st {
				if s == osim.PageFaulted {
					f++
				}
			}
			return
		}
		b.ReportMetric(count(regular), "pages-faulted/regular")
		b.ReportMetric(count(optimized), "pages-faulted/cu")
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §6)
// ---------------------------------------------------------------------------

// ablationFactor measures one workload/strategy pipeline under a custom
// compiler config and returns the relevant fault factor.
func ablationFactor(b *testing.B, cfg eval.Config, workload, strategy string) float64 {
	b.Helper()
	h := eval.NewHarness(cfg)
	w, err := workloads.ByName(workload)
	if err != nil {
		b.Fatal(err)
	}
	base, err := h.MeasureBaseline(w)
	if err != nil {
		b.Fatal(err)
	}
	opt, err := h.MeasureStrategy(w, strategy)
	if err != nil {
		b.Fatal(err)
	}
	var bm, om float64
	for _, m := range base {
		bm += m.TextFaults + m.HeapFaults
	}
	for _, m := range opt.Measures {
		om += m.TextFaults + m.HeapFaults
	}
	bm /= float64(len(base))
	om /= float64(len(opt.Measures))
	if om == 0 {
		return 0
	}
	return bm / om
}

// BenchmarkAblationMaxDepth ablates the structural hash's recursion bound
// (the paper fixes MAX_DEPTH = 2 as the sweet spot between hash collisions
// and cross-build matching, Sec. 7.1): it reports the cross-build ID
// agreement of the structural hash at depths 0–4 on Bounce.
func BenchmarkAblationMaxDepth(b *testing.B) {
	w, err := workloads.ByName("Bounce")
	if err != nil {
		b.Fatal(err)
	}
	p := w.Build()
	for depth := 1; depth <= 4; depth++ {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				agree := structuralAgreement(b, p, depth)
				b.ReportMetric(agree, "%-id-agreement")
			}
		})
	}
}

// structuralAgreement builds two diverging images and measures how many
// structural-hash IDs of one build also occur in the other.
func structuralAgreement(b *testing.B, p *ir.Program, depth int) float64 {
	b.Helper()
	mk := func(seed uint64) map[uint64]bool {
		img, err := image.Build(p, image.Options{
			Kind: image.KindRegular, Compiler: graal.DefaultConfig(), BuildSeed: seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		ids := core.StructuralHash{MaxDepth: depth}.AssignIDs(img.Snapshot)
		set := make(map[uint64]bool, len(ids))
		for _, id := range ids {
			set[id] = true
		}
		return set
	}
	a, bs := mk(1), mk(2)
	common := 0
	for id := range a {
		if bs[id] {
			common++
		}
	}
	return 100 * float64(common) / float64(len(a))
}

// BenchmarkAblationFaultAround ablates the OS fault-around cluster size
// (1–16 pages): larger clusters absorb scattered faults and shrink the
// achievable reduction.
func BenchmarkAblationFaultAround(b *testing.B) {
	for _, fa := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("cluster=%d", fa), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Builds = 1
				cfg.FaultAround = fa
				f := ablationFactor(b, cfg, "Bounce", core.StrategyCombined)
				b.ReportMetric(f, "x-combined")
			}
		})
	}
}

// BenchmarkAblationInlineBudget ablates the inliner's small-callee limit:
// instrumentation perturbs inlining more when methods sit near the limit,
// degrading profile→binary matching.
func BenchmarkAblationInlineBudget(b *testing.B) {
	for _, lim := range []int{48, 96, 192} {
		b.Run(fmt.Sprintf("inline=%d", lim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Builds = 1
				cfg.Compiler.InlineSmallSize = lim
				f := ablationFactor(b, cfg, "Richards", core.StrategyCombined)
				b.ReportMetric(f, "x-combined")
			}
		})
	}
}

// BenchmarkAblationSaturation ablates the virtual-call saturation
// threshold of the reachability analysis and reports the reachable-method
// count (conservatism) for Richards, the most polymorphic workload.
func BenchmarkAblationSaturation(b *testing.B) {
	w, err := workloads.ByName("Richards")
	if err != nil {
		b.Fatal(err)
	}
	p := w.Build()
	for _, thr := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("threshold=%d", thr), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := graal.DefaultConfig()
				cfg.SaturationThreshold = thr
				r := graal.Analyze(p, cfg)
				b.ReportMetric(float64(len(r.MethodOrder)), "reachable-methods")
				b.ReportMetric(float64(r.SaturatedSites), "saturated-sites")
			}
		})
	}
}

// BenchmarkAblationPerTypeCounters ablates the incremental-ID design
// choice of per-type counters vs a single global counter (Sec. 5.1 argues
// per-type counters confine inaccuracies): it compares cross-build ID
// agreement of both variants.
func BenchmarkAblationPerTypeCounters(b *testing.B) {
	w, err := workloads.ByName("Bounce")
	if err != nil {
		b.Fatal(err)
	}
	p := w.Build()
	snapshots := func() (*heap.Snapshot, *heap.Snapshot) {
		mk := func(seed uint64) *heap.Snapshot {
			img, err := image.Build(p, image.Options{
				Kind: image.KindRegular, Compiler: graal.DefaultConfig(), BuildSeed: seed,
			})
			if err != nil {
				b.Fatal(err)
			}
			return img.Snapshot
		}
		return mk(1), mk(2)
	}
	agreement := func(ids1, ids2 map[*heap.Object]uint64, s1, s2 *heap.Snapshot, key func(*heap.Snapshot, *heap.Object) string) float64 {
		d1 := map[uint64]string{}
		for o, id := range ids1 {
			d1[id] = key(s1, o)
		}
		agree, common := 0, 0
		for o, id := range ids2 {
			if k, ok := d1[id]; ok {
				common++
				if k == key(s2, o) {
					agree++
				}
			}
		}
		if common == 0 {
			return 0
		}
		return 100 * float64(agree) / float64(common)
	}
	key := func(s *heap.Snapshot, o *heap.Object) string {
		if o.IsString() {
			return "s:" + o.Str
		}
		if s.IsRoot(o) {
			return "r:" + s.Reason(o)
		}
		return "t:" + o.TypeName()
	}
	b.Run("per-type", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s1, s2 := snapshots()
			a := agreement(core.IncrementalID{}.AssignIDs(s1), core.IncrementalID{}.AssignIDs(s2), s1, s2, key)
			b.ReportMetric(a, "%-id-agreement")
		}
	})
	b.Run("global", func(b *testing.B) {
		global := func(s *heap.Snapshot) map[*heap.Object]uint64 {
			ids := make(map[*heap.Object]uint64, len(s.Objects))
			for i, o := range s.Objects {
				ids[o] = uint64(i) + 1
			}
			return ids
		}
		for i := 0; i < b.N; i++ {
			s1, s2 := snapshots()
			a := agreement(global(s1), global(s2), s1, s2, key)
			b.ReportMetric(a, "%-id-agreement")
		}
	})
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the core machinery.
// ---------------------------------------------------------------------------

// BenchmarkIRBuild measures building programs through the builder DSL:
// construction, exact-size block packing and Resolve. The awfy
// sub-benchmark builds the 14 AWFY programs, microservices the three
// microservice programs.
func BenchmarkIRBuild(b *testing.B) {
	for _, set := range []struct {
		name string
		ws   []workloads.Workload
	}{
		{"awfy", workloads.AWFY()},
		{"microservices", workloads.Microservices()},
	} {
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, w := range set.ws {
					w.Build()
				}
			}
		})
	}
}

// BenchmarkImageBuild measures one regular image build of Bounce
// (compile + build-time initialization + snapshotting + layout).
func BenchmarkImageBuild(b *testing.B) {
	w, _ := workloads.ByName("Bounce")
	p := w.Build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := image.Build(p, image.Options{
			Kind: image.KindRegular, Compiler: graal.DefaultConfig(), BuildSeed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshot measures one heap.BuildSnapshot of micronaut's
// build-time heap: the traversal from the roots of a regular build, its
// side table and the object sizes. Every iteration snapshots a fresh copy
// of the heap, made with the timer stopped, because a snapshot does not
// take an object another snapshot holds.
func BenchmarkSnapshot(b *testing.B) {
	w, err := workloads.ByName("micronaut")
	if err != nil {
		b.Fatal(err)
	}
	img, err := image.Build(w.Build(), image.Options{Kind: image.KindRegular, Compiler: graal.DefaultConfig(), BuildSeed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		roots := copyHeap(img.Snapshot.Roots)
		b.StartTimer()
		if s := heap.BuildSnapshot(roots); len(s.Objects) != len(img.Snapshot.Objects) {
			b.Fatalf("snapshot of %d objects, want %d", len(s.Objects), len(img.Snapshot.Objects))
		}
	}
}

// copyHeap returns roots over a deep copy of the object graph they reach.
func copyHeap(roots []heap.RootRef) []heap.RootRef {
	copies := make(map[*heap.Object]*heap.Object)
	var dup func(o *heap.Object) *heap.Object
	dup = func(o *heap.Object) *heap.Object {
		if c := copies[o]; c != nil {
			return c
		}
		var c *heap.Object
		switch {
		case o.Packed():
			c = heap.NewByteArray(o.Len())
		case o.IsArray():
			elem := o.ElemType()
			c = heap.NewArray(&elem, o.Len())
		default:
			c = heap.NewObject(o.Class)
			c.Str = o.Str
		}
		copies[o] = c
		for i, v := range o.Slots {
			if v.Kind == heap.VRef && v.Ref != nil {
				v = heap.RefVal(dup(v.Ref))
			}
			c.Slots[i] = v
		}
		return c
	}
	out := make([]heap.RootRef, len(roots))
	for i, r := range roots {
		out[i] = heap.RootRef{Obj: dup(r.Obj), Reason: r.Reason}
	}
	return out
}

// BenchmarkBuildOptimized measures one profile-guided bake of micronaut
// per layout strategy: "cu+heap path" makes two instrumented builds with
// memory-mapped profiling runs, post-processing and the optimized build;
// "c3" makes a recording build whose run the affinity recorder watches,
// orders the CUs from the graph and makes the optimized build.
func BenchmarkBuildOptimized(b *testing.B) {
	w, err := workloads.ByName("micronaut")
	if err != nil {
		b.Fatal(err)
	}
	p := w.Build()
	for _, strategy := range []string{core.StrategyCombined, core.StrategyC3} {
		b.Run(strategy, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := image.BuildOptimized(p, image.PipelineOptions{
					Compiler:         graal.DefaultConfig(),
					Strategy:         strategy,
					InstrumentedSeed: uint64(2 * i),
					OptimizedSeed:    uint64(2*i + 1),
					Mode:             profiler.MemoryMapped,
					Args:             w.Args,
					Service:          w.Service,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGraalAssemble measures the compiler back end alone on
// micronaut under heap instrumentation: inlining, constant collection and
// partial escape analysis over one reachability analysis and one method
// scan made up front, as the builds of a pipeline share them.
func BenchmarkGraalAssemble(b *testing.B) {
	w, err := workloads.ByName("micronaut")
	if err != nil {
		b.Fatal(err)
	}
	p := w.Build()
	cfg := graal.DefaultConfig()
	reach := graal.Analyze(p, cfg)
	scan := graal.ScanMethods(reach)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graal.Assemble(p, cfg, graal.InstrHeap, false, reach, scan)
	}
}

// BenchmarkColdRun measures one cold start of a prebuilt regular image,
// per program: Bounce, DeltaBlue (virtual calls), Mandelbrot (float
// arithmetic) and Storage (allocation).
func BenchmarkColdRun(b *testing.B) {
	for _, name := range []string{"Bounce", "DeltaBlue", "Mandelbrot", "Storage"} {
		b.Run(name, func(b *testing.B) {
			w, err := workloads.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			img, err := image.Build(w.Build(), image.Options{
				Kind: image.KindRegular, Compiler: graal.DefaultConfig(), BuildSeed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			o := osim.NewOS(osim.SSD())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.DropCaches()
				proc, err := img.NewProcess(o, nimage.Hooks{})
				if err != nil {
					b.Fatal(err)
				}
				if err := proc.Run(w.Args...); err != nil {
					b.Fatal(err)
				}
				proc.Close()
			}
		})
	}
}

// BenchmarkInterpreter measures the interpreter alone: one Richards run,
// class initializers triggered on demand, on a bare vm.Machine with no
// image and no hooks. decoded-B is the size of the decoded code the run
// leaves cached on the program's methods.
func BenchmarkInterpreter(b *testing.B) {
	w, _ := workloads.ByName("Richards")
	p := w.Build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := vm.New(p)
		m.AutoClinit = true
		if err := m.RunProgram(w.Args...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(vm.DecodedBytes(p)), "decoded-B")
}

// BenchmarkServeRequest measures one request on a warm serve-api process:
// a dispatch RunMethod after startup ran to the first response.
func BenchmarkServeRequest(b *testing.B) {
	w, err := workloads.ByName("serve-api")
	if err != nil {
		b.Fatal(err)
	}
	img, err := image.Build(w.Build(), image.Options{
		Kind: image.KindRegular, Compiler: graal.DefaultConfig(), BuildSeed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	proc, err := img.NewProcess(osim.NewOS(osim.SSD()), nimage.Hooks{})
	if err != nil {
		b.Fatal(err)
	}
	defer proc.Close()
	proc.Machine.StopOnRespond = true
	if err := proc.Run(w.Args...); err != nil {
		b.Fatal(err)
	}
	dispatch := img.Program.Class(w.Serve.DispatchClass).LookupMethod(w.Serve.DispatchMethod)
	// The step budget spans the process's lifetime, and b.N requests may
	// outrun the default.
	proc.Machine.MaxSteps = math.MaxInt64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proc.Machine.RunMethod(dispatch, heap.IntVal(int64(i%w.Serve.Routes))); err != nil {
			b.Fatal(err)
		}
	}
}

// eventLog is an osim.PageObserver that keeps every event it observes.
type eventLog []osim.PageEvent

func (l *eventLog) OnPageEvent(ev osim.PageEvent) { *l = append(*l, ev) }

// BenchmarkAffinityRecorder measures the affinity recorder alone. The
// page-event stream of one serve-api run is recorded once: from the first
// instruction to the first response, then four bursts of eight requests
// with a 30% page-cache reclaim before each, whose pressure evictions
// close recorder windows. Every iteration replays the stream through a
// fresh affinity.Recorder and finishes it.
func BenchmarkAffinityRecorder(b *testing.B) {
	w, err := workloads.ByName("serve-api")
	if err != nil {
		b.Fatal(err)
	}
	img, err := image.Build(w.Build(), image.Options{
		Kind: image.KindRegular, Compiler: graal.DefaultConfig(), BuildSeed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	o := osim.NewOS(osim.SSD())
	proc, err := img.NewProcess(o, nimage.Hooks{})
	if err != nil {
		b.Fatal(err)
	}
	defer proc.Close()
	var events eventLog
	proc.Mapping.Observe(&events)
	proc.Machine.StopOnRespond = true
	if err := proc.Run(w.Args...); err != nil {
		b.Fatal(err)
	}
	dispatch := img.Program.Class(w.Serve.DispatchClass).LookupMethod(w.Serve.DispatchMethod)
	for burst := 0; burst < 4; burst++ {
		o.ReclaimFraction(30)
		for i := 0; i < 8; i++ {
			if _, err := proc.Machine.RunMethod(dispatch, heap.IntVal(int64(i%w.Serve.Routes))); err != nil {
				b.Fatal(err)
			}
		}
	}
	ix := img.AttributionIndex()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := affinity.NewRecorder(ix, affinity.Config{})
		for _, ev := range events {
			r.OnPageEvent(ev)
		}
		r.Finish()
	}
	b.ReportMetric(float64(len(events)), "events/op")
}

// BenchmarkPathNumbering measures Ball–Larus numbering over all compiled
// methods of Bounce.
func BenchmarkPathNumbering(b *testing.B) {
	w, _ := workloads.ByName("Bounce")
	p := w.Build()
	comp := graal.Compile(p, graal.DefaultConfig(), graal.InstrNone, false)
	methods := comp.Reach.CompiledMethods()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range methods {
			profiler.ComputeNumbering(m, 0)
		}
	}
}

// BenchmarkStructuralHashIDs measures structural-hash identity assignment
// over a full snapshot.
func BenchmarkStructuralHashIDs(b *testing.B) {
	w, _ := workloads.ByName("Bounce")
	p := w.Build()
	img, err := image.Build(p, image.Options{
		Kind: image.KindRegular, Compiler: graal.DefaultConfig(), BuildSeed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.StructuralHash{MaxDepth: core.DefaultMaxDepth}.AssignIDs(img.Snapshot)
	}
}

// BenchmarkHeapPathIDs measures heap-path identity assignment.
func BenchmarkHeapPathIDs(b *testing.B) {
	w, _ := workloads.ByName("Bounce")
	p := w.Build()
	img, err := image.Build(p, image.Options{
		Kind: image.KindRegular, Compiler: graal.DefaultConfig(), BuildSeed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.HeapPath{}.AssignIDs(img.Snapshot)
	}
}

// BenchmarkMurmurSnapshotEncoding measures the raw hash throughput used by
// the identity strategies.
func BenchmarkMurmurSnapshotEncoding(b *testing.B) {
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		murmur.Sum64(data)
	}
}
