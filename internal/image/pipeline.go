package image

import (
	"fmt"
	"time"

	"nimage/internal/core"
	"nimage/internal/graal"
	"nimage/internal/ir"
	"nimage/internal/obs"
	"nimage/internal/obs/affinity"
	"nimage/internal/osim"
	"nimage/internal/postproc"
	"nimage/internal/profiler"
	"nimage/internal/vm"
)

// PipelineOptions configures the full profile-guided methodology of Fig. 1:
// instrumented build → profiling run → post-processing → optimized build.
type PipelineOptions struct {
	Compiler graal.Config
	// Strategy is one of the registered core.Strategy* names (see
	// core.Registry), e.g. "cu", "heap path", "cu+heap path", "c3".
	Strategy string
	// InstrumentedSeed / OptimizedSeed are the build seeds of the two
	// builds; they differ in practice, which is exactly what makes object
	// matching hard (Sec. 5).
	InstrumentedSeed uint64
	OptimizedSeed    uint64
	// Mode selects the trace-buffer dump mode of the profiling run.
	Mode profiler.DumpMode
	// Args are the program arguments of the profiling run.
	Args []int64
	// Service marks microservice workloads: the profiling run stops at the
	// first response and is then killed with SIGKILL (Sec. 7.1), so
	// DumpOnFull buffers are lost.
	Service bool
	// MaxPaths bounds per-method path counts.
	MaxPaths uint64
	// Obs, when non-nil, is threaded into the builds and the tracers, and
	// additionally receives per-phase pipeline spans
	// ("pipeline.<probe kind>.profiling_run" / ".postprocess") and
	// trace-size gauges.
	Obs *obs.Registry
	// AffinityGraph is the recorded co-access graph consumed by the graph
	// strategies ("c3", "ext-tsp"). When nil, the pipeline records one
	// itself: a regular build at InstrumentedSeed executed with affinity
	// tracking — an uninstrumented profiling run, so graph strategies pay
	// no probe inflation. Callers with a serve-phase recording (the eval
	// harness) pass it here so the layout optimizes burst residency
	// rather than startup.
	AffinityGraph *affinity.Graph
	// CodeOrder, when non-nil, overrides the "slo-search" strategy's text
	// ordering with a caller-resolved winner (the eval harness injects the
	// measured layout-search result here). Other strategies ignore it;
	// slo-search without it runs the standalone graph-scored search.
	CodeOrder []string
}

// ProfilingRun reports the instrumented execution (for the overhead
// evaluation of Sec. 7.4).
type ProfilingRun struct {
	Instr graal.Instrumentation
	Mode  profiler.DumpMode
	// Time is the simulated end-to-end (or to-first-response) time of the
	// instrumented run, including profiling overhead.
	Time time.Duration
	// CPUTime is the compute share of Time (the overhead table compares
	// compute times, Sec. 7.4).
	CPUTime time.Duration
	// Total is the simulated time of the whole run, final trace flush
	// included; a service's run continues a little past its response.
	Total time.Duration
	// TraceWords counts the 64-bit words that reached the trace files.
	TraceWords int
}

// timeRun records the simulated times of a finished profiling run. A
// service's Time is its time to first response (the total if it never
// responded) and its CPUTime the compute share up to that response; a
// batch run reports its totals.
func (run *ProfilingRun) timeRun(proc *Process, service bool) {
	st := proc.Stats()
	run.Time, run.CPUTime = st.Total, st.CPUTime
	if !service {
		return
	}
	if st.TimeToResponse > 0 {
		run.Time = st.TimeToResponse
	}
	run.CPUTime = time.Duration(proc.Machine.RespondTimeNanos())
}

// PipelineResult is the outcome of BuildOptimized.
type PipelineResult struct {
	// Optimized is the profile-guided image.
	Optimized *Image
	// Runs lists the profiling runs the strategy used, in registry probe
	// order (for "cu+heap path": the CU run, then the heap run).
	Runs []ProfilingRun
	// CodeProfile / HeapProfile are the ordering profiles fed to the
	// optimized build.
	CodeProfile []string
	HeapProfile []uint64
}

// Profile is one finished profiling run and the ordering profiles
// post-processed from its traces. It depends on the probe kind and the
// seed, not on a layout strategy: the three heap strategies emit identical
// probes and differ only in the ID each recorded handle translates to
// (hence Sec. 7.4's one overhead factor for them).
type Profile struct {
	Run ProfilingRun
	// Code is the CU or method order of a code-instrumented run.
	Code []string
	// Heap maps each heap strategy the run recorded IDs for to its
	// object order.
	Heap map[string][]uint64
	// Obs is the run's own registry record, kept by a caller that shares
	// the profile between pipelines.
	Obs *obs.Snapshot
}

// RunProfile performs one profiling run of probe kind instr at
// opts.InstrumentedSeed — instrumented build, traced run, Finish,
// post-processing — and returns the profile and the raw traces. A heap run
// records and translates the IDs of every given heap strategy.
func RunProfile(p *ir.Program, opts PipelineOptions, instr graal.Instrumentation, heapStrategies ...core.HeapStrategy) (*Profile, []profiler.ThreadTrace, error) {
	return runProfile(p, opts, nil, nil, instr, heapStrategies, nil)
}

// A ProfileFunc supplies a pipeline's profile of one probe kind: it calls
// run, which profiles on the pipeline's analysis recording the IDs of the
// given heap strategies and observing into r, or reuses an earlier run's.
type ProfileFunc func(instr graal.Instrumentation, run func(heapStrategies []core.HeapStrategy, r *obs.Registry) (*Profile, error)) (*Profile, error)

// BuildOptimized runs the full pipeline for one strategy and returns the
// optimized image: one profiling run per probe kind of the strategy's
// registry entry — two for the combined "cu+heap path" strategy (Sec.
// 7.1) — then the optimized build. Every build of the pipeline shares one
// reachability analysis of the program and one scan of its methods; the
// scan lives only as long as the pipeline.
func BuildOptimized(p *ir.Program, opts PipelineOptions) (*PipelineResult, error) {
	return BuildOptimizedWith(p, opts, nil)
}

// BuildOptimizedWith is BuildOptimized with the trace profiles supplied by
// profileOf; nil profiles every kind afresh for this strategy alone.
func BuildOptimizedWith(p *ir.Program, opts PipelineOptions, profileOf ProfileFunc) (*PipelineResult, error) {
	info, ok := core.StrategyByName(opts.Strategy)
	if !ok {
		return nil, fmt.Errorf("image: unknown strategy %q", opts.Strategy)
	}
	if err := checkBuildable(p); err != nil {
		return nil, err
	}
	sp := opts.Obs.StartSpan("pipeline." + opts.Strategy + ".reachability")
	reach := graal.Analyze(p, opts.Compiler)
	sp.End()
	sp = opts.Obs.StartSpan("pipeline." + opts.Strategy + ".inlining")
	scan := graal.ScanMethods(reach)
	sp.End()

	// The identity strategy behind the heap profile, if any.
	heapStrategy := opts.Strategy
	if opts.Strategy == core.StrategyCombined {
		heapStrategy = core.StrategyHeapPath
	}
	hs := core.HeapStrategyByName(heapStrategy)
	if profileOf == nil {
		profileOf = func(_ graal.Instrumentation, run func([]core.HeapStrategy, *obs.Registry) (*Profile, error)) (*Profile, error) {
			return run([]core.HeapStrategy{hs}, opts.Obs)
		}
	}

	res := &PipelineResult{}
	switch {
	case info.Graph:
		run, code, err := profileGraph(p, opts, reach, scan)
		if err != nil {
			return nil, err
		}
		if run != nil {
			res.Runs = append(res.Runs, *run)
		}
		res.CodeProfile = code
	case opts.Strategy == core.StrategyPettisHansen:
		// Pettis–Hansen needs edge frequencies rather than a
		// first-execution trace: its own CU run with a call-graph collector.
		prof, _, err := runProfile(p, opts, reach, scan, graal.InstrCU, nil, core.NewCallGraph())
		if err != nil {
			return nil, err
		}
		res.Runs, res.CodeProfile = []ProfilingRun{prof.Run}, prof.Code
	default:
		for _, instr := range info.Instr {
			prof, err := profileOf(instr, func(heapStrategies []core.HeapStrategy, r *obs.Registry) (*Profile, error) {
				o := opts
				o.Obs = r
				prof, _, err := runProfile(p, o, reach, scan, instr, heapStrategies, nil)
				return prof, err
			})
			if err != nil {
				return nil, err
			}
			res.Runs = append(res.Runs, prof.Run)
			if instr != graal.InstrHeap {
				res.CodeProfile = prof.Code
				continue
			}
			if res.HeapProfile, ok = prof.Heap[heapStrategy]; !ok {
				return nil, fmt.Errorf("image: heap profile recorded no %q object IDs", heapStrategy)
			}
		}
	}

	opt, err := build(p, Options{
		Kind:         KindOptimized,
		Compiler:     opts.Compiler,
		BuildSeed:    opts.OptimizedSeed,
		CodeProfile:  res.CodeProfile,
		HeapProfile:  res.HeapProfile,
		HeapStrategy: hs,
		MaxPaths:     opts.MaxPaths,
		Obs:          opts.Obs,
	}, reach, scan)
	if err != nil {
		return nil, err
	}
	res.Optimized = opt
	return res, nil
}

// profileGraph resolves a graph strategy's code profile: order the
// affinity graph's text symbols with the strategy's chain-merging
// algorithm. With no caller-provided graph it records one first — a
// *regular* build at InstrumentedSeed run to completion (or first
// response) with affinity tracking, the graph analogue of profileOnce
// but without probe inflation — so graph strategies bake standalone,
// exactly like the trace strategies. The resulting profile is plain CU
// signatures, so the optimized build and the .nimg recipe treat graph
// strategies identically to "cu".
func profileGraph(p *ir.Program, opts PipelineOptions, reach *graal.Reachability, scan *graal.MethodScan) (*ProfilingRun, []string, error) {
	g := opts.AffinityGraph
	var run *ProfilingRun
	if g == nil {
		img, err := build(p, Options{
			Kind:      KindRegular,
			Compiler:  opts.Compiler,
			BuildSeed: opts.InstrumentedSeed,
			MaxPaths:  opts.MaxPaths,
			Obs:       opts.Obs,
		}, reach, scan)
		if err != nil {
			return nil, nil, fmt.Errorf("image: recording build: %w", err)
		}
		sp := opts.Obs.StartSpan("pipeline." + opts.Strategy + ".profiling_run")
		scratch := osim.NewOS(osim.SSD())
		scratch.TrackAffinity = true
		proc, err := img.NewProcess(scratch, vm.Hooks{})
		if err != nil {
			return nil, nil, err
		}
		defer proc.Close()
		proc.Machine.StopOnRespond = opts.Service
		if err := proc.Run(opts.Args...); err != nil {
			return nil, nil, fmt.Errorf("image: recording run: %w", err)
		}
		run = &ProfilingRun{Instr: graal.InstrNone, Mode: opts.Mode}
		run.timeRun(proc, opts.Service)
		g = proc.AffinityGraph()
		sp.End()
		if g == nil {
			return nil, nil, fmt.Errorf("image: %s: recording run produced no affinity graph", opts.Strategy)
		}
	}
	sp := opts.Obs.StartSpan("pipeline." + opts.Strategy + ".postprocess")
	defer sp.End()
	var profile []string
	switch opts.Strategy {
	case core.StrategyC3:
		profile = core.C3Order(g)
	case core.StrategyExtTSP:
		profile = core.ExtTSPOrder(g)
	case core.StrategySLOSearch:
		if opts.CodeOrder != nil {
			profile = append([]string(nil), opts.CodeOrder...)
		} else {
			profile = core.SLOSearchOrder(g)
		}
	default:
		return nil, nil, fmt.Errorf("image: unknown graph strategy %q", opts.Strategy)
	}
	if r := opts.Obs; r.Enabled() {
		r.Gauge("pipeline." + opts.Strategy + ".profile_symbols").Set(float64(len(profile)))
	}
	return run, profile, nil
}

// runProfile performs one profiling run of probe kind instr (see
// RunProfile) on reach and scan, which may be nil. A non-nil callGraph is
// attached to the run, and the code profile is then its Pettis–Hansen
// order instead of the first-execution order.
func runProfile(p *ir.Program, opts PipelineOptions, reach *graal.Reachability, scan *graal.MethodScan, instr graal.Instrumentation, heapStrategies []core.HeapStrategy, callGraph *core.CallGraph) (*Profile, []profiler.ThreadTrace, error) {
	img, err := build(p, Options{
		Kind:      KindInstrumented,
		Compiler:  opts.Compiler,
		Instr:     instr,
		Mode:      opts.Mode,
		BuildSeed: opts.InstrumentedSeed,
		MaxPaths:  opts.MaxPaths,
		Obs:       opts.Obs,
	}, reach, scan)
	if err != nil {
		return nil, nil, fmt.Errorf("image: instrumented build: %w", err)
	}
	if instr == graal.InstrHeap {
		img.recordIDs(heapStrategies)
	}

	tr := profiler.NewTracer(instr, opts.Mode)
	tr.MethodIdx = img.Table.Index
	tr.Numberings = img.Numberings
	tr.ObjectHandle = img.ObjectHandle
	tr.Obs = opts.Obs
	hooks := tr.Hooks()
	if callGraph != nil {
		hooks = vm.ComposeHooks(hooks, callGraph.Collector())
	}

	// The profiling run executes on a scratch OS; its page faults are
	// irrelevant, but its simulated time (with profiling overhead) is the
	// overhead measurement of Sec. 7.4.
	prefix := "pipeline." + instr.String()
	sp := opts.Obs.StartSpan(prefix + ".profiling_run")
	proc, err := img.NewProcess(osim.NewOS(osim.SSD()), hooks)
	if err != nil {
		return nil, nil, err
	}
	defer proc.Close()
	tr.AddCycles = func(c int64) { proc.Machine.Cycles += c }
	proc.Machine.StopOnRespond = opts.Service
	if err := proc.Run(opts.Args...); err != nil {
		return nil, nil, fmt.Errorf("image: profiling run: %w", err)
	}
	prof := &Profile{Run: ProfilingRun{Instr: instr, Mode: opts.Mode}}
	prof.Run.timeRun(proc, opts.Service)
	traces := tr.Finish(opts.Service)
	prof.Run.Total = proc.Stats().Total
	for _, tt := range traces {
		prof.Run.TraceWords += len(tt.Words)
	}
	sp.End()
	if r := opts.Obs; r.Enabled() {
		r.Gauge(prefix + ".trace_words").Set(float64(prof.Run.TraceWords))
		r.Gauge(prefix + ".profiling_cpu_nanos").Set(float64(prof.Run.CPUTime.Nanoseconds()))
	}
	sp = opts.Obs.StartSpan(prefix + ".postprocess")
	defer sp.End()

	var code interface {
		postproc.Analysis
		Profile() []string
	}
	switch {
	case callGraph != nil:
		for _, cu := range core.PettisHansenOrder(img.Comp.CUs, callGraph) {
			prof.Code = append(prof.Code, cu.Signature())
		}
		return prof, traces, nil
	case instr == graal.InstrHeap:
		prof.Heap, err = img.HeapProfile(traces)
		return prof, traces, err
	case instr == graal.InstrMethod:
		code = postproc.NewMethodOrderAnalysis()
	default:
		code = postproc.NewCUOrderAnalysis()
	}
	if err := postproc.Dispatch(traces, img.Table, img.Numberings, code); err != nil {
		return nil, nil, err
	}
	prof.Code = code.Profile()
	return prof, traces, nil
}

// HeapProfile post-processes the traces of a heap-instrumented run into
// the heap-ordering profile of every strategy whose IDs the image
// recorded: one pass orders the recorded handles by first access, then
// each strategy translates them to its IDs. It is an error when the image
// recorded no IDs: the profiles would silently come out empty.
func (img *Image) HeapProfile(traces []profiler.ThreadTrace) (map[string][]uint64, error) {
	if img.StrategyIDs == nil {
		return nil, fmt.Errorf("image: %s %s build recorded no object IDs", img.Opts.Kind, img.Opts.Instr)
	}
	a := postproc.NewHeapOrderAnalysis()
	if err := postproc.Dispatch(traces, img.Table, img.Numberings, a); err != nil {
		return nil, err
	}
	out := make(map[string][]uint64, len(img.StrategyIDs))
	for s := range img.StrategyIDs {
		out[s] = a.Profile(func(h uint64) (uint64, bool) {
			return img.StrategyIDOfHandle(s, h)
		})
	}
	return out, nil
}
