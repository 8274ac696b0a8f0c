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
	"nimage/internal/osim"
	"nimage/internal/profiler"
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

// ablationPipeline measures one workload/strategy pipeline under a custom
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
	agreement := func(ids1, ids2 map[*heap.Object]uint64, s1, s2 *heap.Snapshot, key func(*heap.Object) string) float64 {
		d1 := map[uint64]string{}
		for o, id := range ids1 {
			d1[id] = key(o)
		}
		agree, common := 0, 0
		for o, id := range ids2 {
			if k, ok := d1[id]; ok {
				common++
				if k == key(o) {
					agree++
				}
			}
		}
		if common == 0 {
			return 0
		}
		return 100 * float64(agree) / float64(common)
	}
	key := func(o *heap.Object) string {
		if o.IsString() {
			return "s:" + o.Str
		}
		if o.Root {
			return "r:" + o.Reason
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

// BenchmarkBuildOptimized measures one profile-guided bake of micronaut
// under the combined strategy: two instrumented builds with memory-mapped
// profiling runs, post-processing, and the optimized build.
func BenchmarkBuildOptimized(b *testing.B) {
	w, err := workloads.ByName("micronaut")
	if err != nil {
		b.Fatal(err)
	}
	p := w.Build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := image.BuildOptimized(p, image.PipelineOptions{
			Compiler:         graal.DefaultConfig(),
			Strategy:         core.StrategyCombined,
			InstrumentedSeed: uint64(2 * i),
			OptimizedSeed:    uint64(2*i + 1),
			Mode:             profiler.MemoryMapped,
			Args:             w.Args,
			Service:          w.Service,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraalAssemble measures the compiler back end alone on
// micronaut under heap instrumentation: inlining, constant collection and
// partial escape analysis over one reachability analysis made up front.
func BenchmarkGraalAssemble(b *testing.B) {
	w, err := workloads.ByName("micronaut")
	if err != nil {
		b.Fatal(err)
	}
	p := w.Build()
	cfg := graal.DefaultConfig()
	reach := graal.Analyze(p, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graal.Assemble(p, cfg, graal.InstrHeap, false, reach)
	}
}

// BenchmarkColdRun measures one cold start of a prebuilt Bounce image.
func BenchmarkColdRun(b *testing.B) {
	w, _ := workloads.ByName("Bounce")
	p := w.Build()
	img, err := image.Build(p, image.Options{
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

// BenchmarkBaselinePettisHansen compares the classic Pettis–Hansen
// call-graph ordering [44] against the paper's cu ordering for *cold
// start*. PH optimizes steady-state locality from edge frequencies; the
// paper argues (Sec. 8) that such orderings are not aimed at startup.
//
// Observed result: when the profiling run equals the measured run, both
// strategies compact the same executed-CU set to the front of .text, so
// their *total* cold-start fault counts coincide — the fault count of a
// completed run depends on the hot set, not on its internal order. The
// first-execution order the paper optimizes (Property 1, Sec. 4) matters
// for the *progression* of paging (interrupted startups, sequential
// readahead), which this simulator's fault accounting does not reward;
// the bench documents that equivalence explicitly.
func BenchmarkBaselinePettisHansen(b *testing.B) {
	for _, wname := range []string{"Bounce", "micronaut"} {
		b.Run(wname, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Builds = 1
				h := eval.NewHarness(cfg)
				w, err := workloads.ByName(wname)
				if err != nil {
					b.Fatal(err)
				}
				base, err := h.MeasureBaseline(w)
				if err != nil {
					b.Fatal(err)
				}
				factor := func(strategy string) float64 {
					opt, err := h.MeasureStrategy(w, strategy)
					if err != nil {
						b.Fatal(err)
					}
					var bm, om float64
					for _, m := range base {
						bm += m.TextFaults
					}
					for _, m := range opt.Measures {
						om += m.TextFaults
					}
					return bm / om * float64(len(opt.Measures)) / float64(len(base))
				}
				b.ReportMetric(factor(core.StrategyCU), "x-text/cu")
				b.ReportMetric(factor(core.StrategyPettisHansen), "x-text/pettis-hansen")
			}
		})
	}
}

// BenchmarkAblationAdaptiveReadahead re-runs the cu-vs-Pettis-Hansen
// comparison with Linux-style readahead escalation enabled. One might
// expect the sequential ramp-up to reward the paper's first-execution
// ordering (Property 1) over PH's frequency chains; the measured result is
// that they stay equal: startup interleaves .text and .svm_heap faults,
// and the per-file readahead state resets on every section switch, so the
// ramp never builds up — the benefit of first-execution ordering comes
// from compaction, not from intra-region sequentiality. The bench keeps
// this (negative) result observable.
func BenchmarkAblationAdaptiveReadahead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.Builds = 1
		cfg.AdaptiveReadahead = true
		cfg.FaultAround = 2 // fine-grained windows expose ordering effects
		h := eval.NewHarness(cfg)
		w, err := workloads.ByName("Bounce")
		if err != nil {
			b.Fatal(err)
		}
		base, err := h.MeasureBaseline(w)
		if err != nil {
			b.Fatal(err)
		}
		time := func(strategy string) float64 {
			opt, err := h.MeasureStrategy(w, strategy)
			if err != nil {
				b.Fatal(err)
			}
			var s float64
			for _, m := range opt.Measures {
				s += m.Time
			}
			return s / float64(len(opt.Measures))
		}
		var bt float64
		for _, m := range base {
			bt += m.Time
		}
		bt /= float64(len(base))
		b.ReportMetric(bt/time(core.StrategyCU), "x-speed/cu")
		b.ReportMetric(bt/time(core.StrategyPettisHansen), "x-speed/pettis-hansen")
	}
}
