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

// vmHooks/vmCompose keep the hook plumbing readable.
type vmHooks = vm.Hooks

var vmCompose = vm.ComposeHooks

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
	// Obs, when non-nil, is threaded into both builds, the tracer, and the
	// profiling run, and additionally receives per-phase pipeline spans
	// ("pipeline.<strategy>.profiling_run" / ".postprocess") and trace-size
	// gauges.
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
	// Runs lists the profiling executions performed (one, or two for the
	// combined strategy).
	Runs []ProfilingRun
	// CodeProfile / HeapProfile are the ordering profiles fed to the
	// optimized build.
	CodeProfile []string
	HeapProfile []uint64
}

// strategyInstr maps a strategy name to the instrumentation its profiling
// build needs, resolved through the strategy registry. Strategies without
// exactly one probe kind — the combined strategy (two kinds) and the
// graph strategies (none) — are an error.
func strategyInstr(strategy string) (graal.Instrumentation, error) {
	info, ok := core.StrategyByName(strategy)
	if !ok {
		return 0, fmt.Errorf("image: unknown strategy %q", strategy)
	}
	if len(info.Instr) != 1 {
		return 0, fmt.Errorf("image: strategy %q has no single probe kind", strategy)
	}
	return info.Instr[0], nil
}

// composePH merges the PH call-graph collector into the tracer hooks.
func composePH(h vmHooks, g *core.CallGraph) vmHooks {
	return vmCompose(h, g.Collector())
}

// BuildOptimized runs the full pipeline for one strategy and returns the
// optimized image. The combined "cu+heap path" strategy performs two
// profiling runs — one CU-instrumented, one heap-instrumented — and feeds
// both profiles to the optimizing build (Sec. 7.1). Every build of the
// pipeline shares one reachability analysis of the program and one scan
// of its methods; the scan lives only as long as the pipeline.
func BuildOptimized(p *ir.Program, opts PipelineOptions) (*PipelineResult, error) {
	if err := checkBuildable(p); err != nil {
		return nil, err
	}
	sp := opts.Obs.StartSpan("pipeline." + opts.Strategy + ".reachability")
	reach := graal.Analyze(p, opts.Compiler)
	sp.End()
	sp = opts.Obs.StartSpan("pipeline." + opts.Strategy + ".inlining")
	scan := graal.ScanMethods(reach)
	sp.End()

	res := &PipelineResult{}
	collect := func(strategy string) error {
		instr, err := strategyInstr(strategy)
		if err != nil {
			return err
		}
		run, code, heapProf, err := profileOnce(p, opts, reach, scan, instr, strategy)
		if err != nil {
			return err
		}
		res.Runs = append(res.Runs, run)
		if code != nil {
			res.CodeProfile = code
		}
		if heapProf != nil {
			res.HeapProfile = heapProf
		}
		return nil
	}

	optOpts := Options{
		Kind:      KindOptimized,
		Compiler:  opts.Compiler,
		BuildSeed: opts.OptimizedSeed,
		MaxPaths:  opts.MaxPaths,
		Obs:       opts.Obs,
	}
	switch {
	case opts.Strategy == core.StrategyCombined:
		if err := collect(core.StrategyCU); err != nil {
			return nil, err
		}
		if err := collect(core.StrategyHeapPath); err != nil {
			return nil, err
		}
		optOpts.HeapStrategy = core.HeapStrategyByName(core.StrategyHeapPath)
	case core.IsGraphStrategy(opts.Strategy):
		run, code, err := profileGraph(p, opts, reach, scan)
		if err != nil {
			return nil, err
		}
		if run != nil {
			res.Runs = append(res.Runs, *run)
		}
		res.CodeProfile = code
	default:
		if err := collect(opts.Strategy); err != nil {
			return nil, err
		}
		optOpts.HeapStrategy = core.HeapStrategyByName(opts.Strategy)
	}
	optOpts.CodeProfile = res.CodeProfile
	optOpts.HeapProfile = res.HeapProfile

	opt, err := build(p, optOpts, reach, scan)
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
		proc, err := img.NewProcess(scratch, vmHooks{})
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

// profileOnce builds one instrumented image, executes it, and
// post-processes the traces into profiles. It returns the code profile
// (for InstrCU/InstrMethod) or the heap profile (for InstrHeap, translated
// by the named strategy).
func profileOnce(p *ir.Program, opts PipelineOptions, reach *graal.Reachability, scan *graal.MethodScan, instr graal.Instrumentation, strategy string) (ProfilingRun, []string, []uint64, error) {
	run := ProfilingRun{Instr: instr, Mode: opts.Mode}
	img, err := build(p, Options{
		Kind:         KindInstrumented,
		Compiler:     opts.Compiler,
		Instr:        instr,
		Mode:         opts.Mode,
		BuildSeed:    opts.InstrumentedSeed,
		MaxPaths:     opts.MaxPaths,
		HeapStrategy: core.HeapStrategyByName(strategy),
		Obs:          opts.Obs,
	}, reach, scan)
	if err != nil {
		return run, nil, nil, fmt.Errorf("image: instrumented build: %w", err)
	}

	tr := profiler.NewTracer(instr, opts.Mode)
	tr.MethodIdx = img.Table.Index
	tr.Numberings = img.Numberings
	tr.ObjectHandle = img.ObjectHandle
	tr.Obs = opts.Obs

	// The Pettis–Hansen baseline needs edge frequencies rather than a
	// first-execution trace, so it attaches its own call-graph collector.
	var callGraph *core.CallGraph
	hooks := tr.Hooks()
	if strategy == core.StrategyPettisHansen {
		callGraph = core.NewCallGraph()
		hooks = composePH(hooks, callGraph)
	}

	// The profiling run executes on a scratch OS; its page faults are
	// irrelevant, but its simulated time (with profiling overhead) is the
	// overhead measurement of Sec. 7.4.
	sp := opts.Obs.StartSpan("pipeline." + strategy + ".profiling_run")
	scratch := osim.NewOS(osim.SSD())
	proc, err := img.NewProcess(scratch, hooks)
	if err != nil {
		return run, nil, nil, err
	}
	defer proc.Close()
	tr.AddCycles = func(c int64) { proc.Machine.Cycles += c }
	proc.Machine.StopOnRespond = opts.Service
	if err := proc.Run(opts.Args...); err != nil {
		return run, nil, nil, fmt.Errorf("image: profiling run: %w", err)
	}
	run.timeRun(proc, opts.Service)

	traces := tr.Finish(opts.Service)
	for _, tt := range traces {
		run.TraceWords += len(tt.Words)
	}
	sp.End()
	if r := opts.Obs; r.Enabled() {
		r.Gauge("pipeline." + strategy + ".trace_words").Set(float64(run.TraceWords))
		r.Gauge("pipeline." + strategy + ".profiling_cpu_nanos").Set(float64(run.CPUTime.Nanoseconds()))
	}
	sp = opts.Obs.StartSpan("pipeline." + strategy + ".postprocess")
	defer sp.End()

	if callGraph != nil {
		order := core.PettisHansenOrder(img.Comp.CUs, callGraph)
		profile := make([]string, 0, len(order))
		for _, cu := range order {
			profile = append(profile, cu.Signature())
		}
		return run, profile, nil, nil
	}

	switch instr {
	case graal.InstrCU:
		a := postproc.NewCUOrderAnalysis()
		if err := postproc.Dispatch(traces, img.Table, img.Numberings, a); err != nil {
			return run, nil, nil, err
		}
		return run, a.Profile(), nil, nil
	case graal.InstrMethod:
		a := postproc.NewMethodOrderAnalysis()
		if err := postproc.Dispatch(traces, img.Table, img.Numberings, a); err != nil {
			return run, nil, nil, err
		}
		return run, a.Profile(), nil, nil
	default:
		prof, err := img.HeapProfile(traces, strategy)
		return run, nil, prof, err
	}
}

// HeapProfile post-processes the traces of a heap-instrumented run into
// the named strategy's heap-ordering profile. It is an error when the
// build recorded no object IDs for that strategy: the profile would
// silently come out empty.
func (img *Image) HeapProfile(traces []profiler.ThreadTrace, strategy string) ([]uint64, error) {
	if !img.recordsIDsOf(strategy) {
		return nil, fmt.Errorf("image: %s %s build recorded no %q object IDs", img.Opts.Kind, img.Opts.Instr, strategy)
	}
	a := postproc.NewHeapOrderAnalysis()
	if err := postproc.Dispatch(traces, img.Table, img.Numberings, a); err != nil {
		return nil, err
	}
	return a.Profile(func(h uint64) (uint64, bool) {
		return img.StrategyIDOfHandle(strategy, h)
	}), nil
}
