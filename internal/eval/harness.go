package eval

import (
	"fmt"
	"math"
	"sync"

	"nimage/internal/core"
	"nimage/internal/graal"
	"nimage/internal/image"
	"nimage/internal/ir"
	"nimage/internal/obs"
	"nimage/internal/obs/affinity"
	"nimage/internal/obs/attrib"
	"nimage/internal/osim"
	"nimage/internal/profiler"
	"nimage/internal/vm"
	"nimage/internal/workloads"
)

// Config tunes the evaluation protocol (Sec. 7.1). The paper uses 10
// builds × 10 cold iterations; here every cold start of one image is
// bit-identical, so each build is measured once and builds are the only
// source of variance. The default build count is smaller for tractable
// runtimes.
type Config struct {
	// Builds is the number of images per strategy (different build seeds),
	// each measured by one cold start.
	Builds int
	// Device is the storage backing the binaries (SSD by default).
	Device osim.Device
	// FaultAround is the OS fault-around cluster size in pages.
	FaultAround int
	// AdaptiveReadahead enables Linux-style readahead escalation (rewards
	// layouts whose access order matches their layout order).
	AdaptiveReadahead bool
	// Compiler is the compiler configuration shared by all builds.
	Compiler graal.Config
	// Observe attaches a fresh obs registry to every build (pipeline spans,
	// match statistics) and every cold start (fault timelines,
	// instruction mix), populating RunMeasure.Report and the Pipeline
	// snapshots of the outcomes. Off by default: the measurement fast paths
	// then carry no instrumentation cost.
	Observe bool
	// TrackAffinity attaches the temporal co-access recorder to every
	// measured process (populating RunMeasure.Affinity/Scorecard and
	// ServeOutcome.Affinity/Scorecard) without the full obs registry that
	// Observe implies. Observe also enables affinity tracking.
	TrackAffinity bool
	// Workers bounds the number of concurrently executing build+measure
	// tasks of the scheduler. 0 (the default) means runtime.GOMAXPROCS(0);
	// 1 recovers a fully serial run. Results are bit-identical for every
	// worker count — see the determinism contract in scheduler.go.
	Workers int
}

// DefaultConfig returns the evaluation defaults.
func DefaultConfig() Config {
	return Config{
		Builds:      3,
		Device:      osim.SSD(),
		FaultAround: osim.DefaultFaultAround,
		Compiler:    graal.DefaultConfig(),
	}
}

// Strategies lists the cold-start strategies in figure order, from the
// strategy registry: the paper's six. The graph layouts are serve-only: a
// finished cold start's faults depend on the code it executed, not on its
// order, so they cannot separate there.
func Strategies() []string {
	return core.EvalStrategyNames()
}

// LayoutBaseline is the layout name of the unmodified (regular) images;
// every measurement path treats it as one more layout.
const LayoutBaseline = "identity"

// RunMeasure is the measurement of one cold start of one build.
type RunMeasure struct {
	TextFaults float64 `json:"text_faults"`
	HeapFaults float64 `json:"heap_faults"`
	// Time is the end-to-end execution time for AWFY workloads, or the
	// elapsed time until the first response for microservices (seconds).
	Time float64 `json:"time_seconds"`
	// CPUSeconds is the compute share of Time (no fault I/O); the
	// profiling-overhead table compares compute times, since cold-start
	// I/O would mask the tracing cost (Sec. 7.4 measures steady
	// instrumented executions).
	CPUSeconds float64 `json:"cpu_seconds"`
	// AccessedFrac is the fraction of snapshot objects accessed.
	AccessedFrac float64 `json:"accessed_frac"`
	// Report is the observability snapshot of this run (per-section
	// fault timelines, instruction mix, run totals); nil unless the harness
	// runs with Config.Observe.
	Report *obs.Snapshot `json:"report,omitempty"`
	// Attrib is the per-symbol fault attribution of this run; nil
	// unless the harness runs with Config.Observe.
	Attrib *attrib.Table `json:"attrib,omitempty"`
	// Affinity is the temporal co-access graph of this run and
	// Scorecard its static layout score against the measured image's own
	// layout; nil unless the harness observes or tracks affinity.
	Affinity  *affinity.Graph     `json:"affinity,omitempty"`
	Scorecard *affinity.Scorecard `json:"scorecard,omitempty"`
}

// RunReport is the structured observability record attached to a measured
// cold start.
type RunReport = obs.Snapshot

// Harness caches built programs and memoizes measurements, so figures
// sharing the same underlying runs (e.g. Figures 2 and 5 on AWFY) measure
// each workload/strategy pair once. A Harness is safe for concurrent use:
// duplicate concurrent measurements of the same key collapse onto one
// in-flight computation (singleflight), and the per-build work of each
// measurement fans out across the scheduler's worker pool (scheduler.go).
type Harness struct {
	Cfg Config

	mu          sync.Mutex
	progs       map[string]*ir.Program
	stratCache  map[string]*StrategyOutcome
	serveCache  map[string][]*ServeOutcome
	serveImgs   map[string]*image.Image
	serveGraphs map[string]*affinity.Graph
	searchCache map[string]*SearchResult
	fleetCache  map[string][]*FleetOutcome
	profiles    map[string]*image.Profile

	sched sched
}

// NewHarness creates a harness.
func NewHarness(cfg Config) *Harness {
	return &Harness{
		Cfg:         cfg,
		progs:       make(map[string]*ir.Program),
		stratCache:  make(map[string]*StrategyOutcome),
		serveCache:  make(map[string][]*ServeOutcome),
		serveImgs:   make(map[string]*image.Image),
		serveGraphs: make(map[string]*affinity.Graph),
		searchCache: make(map[string]*SearchResult),
		fleetCache:  make(map[string][]*FleetOutcome),
		profiles:    make(map[string]*image.Profile),
	}
}

// Program returns the (cached) program of a workload. Concurrent callers
// for the same workload share one build.
func (h *Harness) Program(w workloads.Workload) *ir.Program {
	p, _ := memo(h, h.progs, "prog\x00"+w.Name, func() (*ir.Program, error) {
		return w.Build(), nil
	})
	return p
}

func (h *Harness) newOS() *osim.OS {
	o := osim.NewOS(h.Cfg.Device)
	o.FaultAround = h.Cfg.FaultAround
	o.AdaptiveReadahead = h.Cfg.AdaptiveReadahead
	o.TrackAffinity = h.Cfg.TrackAffinity
	return o
}

// measureImage runs one image once on a cold page cache and returns its
// measurement. layout labels the attribution tables ("identity" for
// baselines, the strategy name otherwise).
func (h *Harness) measureImage(img *image.Image, w workloads.Workload, layout string) (RunMeasure, error) {
	o := h.newOS()
	if h.Cfg.Observe {
		o.Obs = obs.NewRegistry()
	}
	proc, err := img.NewProcess(o, vm.Hooks{})
	if err != nil {
		return RunMeasure{}, err
	}
	proc.Machine.StopOnRespond = w.Service
	if err := proc.Run(w.Args...); err != nil {
		proc.Close()
		return RunMeasure{}, fmt.Errorf("eval: running %s: %w", w.Name, err)
	}
	st := proc.Stats()
	m := RunMeasure{
		TextFaults:   float64(st.TextFaults.Total()),
		HeapFaults:   float64(st.HeapFaults.Total()),
		CPUSeconds:   st.CPUTime.Seconds(),
		AccessedFrac: accessedFraction(st.AccessedObjects, st.SnapshotObjects),
	}
	if w.Service {
		if st.TimeToResponse <= 0 {
			proc.Close()
			return RunMeasure{}, fmt.Errorf("eval: %s never responded", w.Name)
		}
		m.Time = st.TimeToResponse.Seconds()
	} else {
		m.Time = st.Total.Seconds()
	}
	if tab := proc.AttributionTable(); tab != nil {
		tab.Layout = layout
		m.Attrib = tab
	}
	if g := proc.AffinityGraph(); g != nil {
		g.Layout = layout
		m.Affinity = g
		// Cold starts apply no inter-window pressure or budget; the
		// card's value here is the locality and working-set view.
		sc, err := affinity.Score(g,
			affinity.NewPlacement(img.AttributionIndex().Symbols()), layout, 0, 0)
		if err != nil {
			proc.Close()
			return RunMeasure{}, err
		}
		m.Scorecard = sc
	}
	proc.Close()
	if o.Obs != nil {
		m.Report = o.Obs.Snapshot()
	}
	return m, nil
}

// accessedFraction returns the fraction of snapshot objects accessed, 0
// for images with an empty snapshot — a plain division would yield NaN,
// which encoding/json refuses to marshal when the measures reach the
// report document (`nimage-eval -figure report`).
func accessedFraction(accessed, snapshot int) float64 {
	if snapshot <= 0 {
		return 0
	}
	return float64(accessed) / float64(snapshot)
}

// baselineSeed and friends derive deterministic build seeds.
func baselineSeed(build int) uint64     { return 0x5eed0000 + uint64(build) }
func instrumentedSeed(build int) uint64 { return 0x1457a000 + uint64(build)*31 }
func optimizedSeed(build int) uint64    { return 0x0b715000 + uint64(build)*17 }

// MeasureBaseline returns the measures of the regular builds of a
// workload: its LayoutBaseline outcome.
func (h *Harness) MeasureBaseline(w workloads.Workload) ([]RunMeasure, error) {
	out, err := h.MeasureStrategy(w, LayoutBaseline)
	if err != nil {
		return nil, err
	}
	return out.Measures, nil
}

// bake builds image bld of a layout of w: the regular binary for
// LayoutBaseline, otherwise the layout's pipeline at the build's seeds on
// profiles shared through Harness.profile. adjust, when non-nil, edits the
// pipeline options first (serve graph layouts bake from a serve
// recording). observe adds the build's snapshot, shared profiles merged.
func (h *Harness) bake(w workloads.Workload, layout string, bld int, observe bool, adjust func(*image.PipelineOptions) error) (*image.PipelineResult, *obs.Snapshot, error) {
	p := h.Program(w)
	var r *obs.Registry
	if observe {
		r = obs.NewRegistry()
	}
	var res *image.PipelineResult
	var shared []*obs.Snapshot
	if layout == LayoutBaseline {
		img, err := image.Build(p, image.Options{
			Kind:      image.KindRegular,
			Compiler:  h.Cfg.Compiler,
			BuildSeed: baselineSeed(bld),
			Obs:       r,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("eval: baseline build of %s: %w", w.Name, err)
		}
		res = &image.PipelineResult{Optimized: img}
	} else {
		popts := image.PipelineOptions{
			Compiler:         h.Cfg.Compiler,
			Strategy:         layout,
			InstrumentedSeed: instrumentedSeed(bld),
			OptimizedSeed:    optimizedSeed(bld),
			Mode:             profiler.ModeFor(w.Service),
			Args:             w.Args,
			Service:          w.Service,
			Obs:              r,
		}
		if adjust != nil {
			if err := adjust(&popts); err != nil {
				return nil, nil, err
			}
		}
		var err error
		res, err = image.BuildOptimizedWith(p, popts, func(instr graal.Instrumentation, run func([]core.HeapStrategy, *obs.Registry) (*image.Profile, error)) (*image.Profile, error) {
			prof, err := h.profile(w, bld, instr, run)
			if err == nil {
				shared = append(shared, prof.Obs)
			}
			return prof, err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("eval: %s/%s: %w", w.Name, layout, err)
		}
	}
	if r == nil {
		return res, nil, nil
	}
	return res, obs.MergeSnapshots(append(shared, r.Snapshot())...), nil
}

// profile returns the profile of probe kind instr for build bld of w,
// computed with run on first use and shared by every strategy of the kind:
// a heap run records all three heap strategies' IDs. bake derives every
// profiling input from (w, bld) and the config (adjust feeds only graph
// layouts, which make no trace profile), so no other key is needed. Only
// the run and its profiles are kept, never the image or traces. The run
// observes into its own registry (Profile.Obs), so every build using it
// carries the same names whichever strategy computed it.
func (h *Harness) profile(w workloads.Workload, bld int, instr graal.Instrumentation, run func([]core.HeapStrategy, *obs.Registry) (*image.Profile, error)) (*image.Profile, error) {
	key := fmt.Sprintf("prof\x00%s\x00%d\x00%s", w.Name, bld, instr)
	return memo(h, h.profiles, key, func() (*image.Profile, error) {
		h.sched.profileRuns.Add(1)
		var r *obs.Registry
		if h.Cfg.Observe {
			r = obs.NewRegistry()
		}
		prof, err := run(core.HeapStrategies(), r)
		if err == nil && r != nil {
			prof.Obs = r.Snapshot()
		}
		return prof, err
	})
}

// compactSnapshots drops nil entries while preserving build order: every
// entry is set when the harness observes, none otherwise.
func compactSnapshots(snaps []*obs.Snapshot) []*obs.Snapshot {
	var out []*obs.Snapshot
	for _, s := range snaps {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

// StrategyOutcome is the measurement of one layout on one workload.
type StrategyOutcome struct {
	// Strategy is the measured layout name (LayoutBaseline for the
	// regular builds).
	Strategy string
	Measures []RunMeasure
	// Profiling lists the instrumented runs (for the overhead table); nil
	// for the baseline.
	Profiling []image.ProfilingRun
	// CodeMatched / HeapMatched report profile-application quality of the
	// last build.
	CodeMatched int
	HeapMatched int
	// HeapMatch is the full match breakdown of the last build (zero value
	// for the baseline and pure code strategies, which apply no heap
	// profile).
	HeapMatch core.MatchBreakdown
	// Pipeline holds one observability snapshot per build covering the
	// whole pipeline — instrumented build, profiling run, post-processing,
	// optimized build (the one regular build for the baseline); nil unless
	// Config.Observe.
	Pipeline []*obs.Snapshot
}

// MeasureStrategy measures one layout on one workload: the regular builds
// for LayoutBaseline, otherwise the full pipeline of the strategy.
// Results are memoized per (workload, layout); concurrent callers for
// the same key block on one in-flight measurement instead of duplicating
// the pipelines.
func (h *Harness) MeasureStrategy(w workloads.Workload, layout string) (*StrategyOutcome, error) {
	return memo(h, h.stratCache, "strat\x00"+w.Name+"\x00"+layout, func() (*StrategyOutcome, error) {
		return h.measureStrategy(w, layout)
	})
}

// measureStrategy bakes and measures one layout over every build seed,
// fanning the builds out across the worker pool. Every result slice is
// indexed by build, so the outcome is bit-identical for every worker
// count and completion order.
func (h *Harness) measureStrategy(w workloads.Workload, layout string) (*StrategyOutcome, error) {
	out := &StrategyOutcome{Strategy: layout}
	measures := make([]RunMeasure, h.Cfg.Builds)
	profiling := make([][]image.ProfilingRun, h.Cfg.Builds)
	snaps := make([]*obs.Snapshot, h.Cfg.Builds)
	err := h.forEach(h.Cfg.Builds, func(bld int) error {
		h.sched.buildTasks.Add(1)
		res, snap, err := h.bake(w, layout, bld, h.Cfg.Observe, nil)
		if err != nil {
			return err
		}
		if measures[bld], err = h.measureImage(res.Optimized, w, layout); err != nil {
			return err
		}
		profiling[bld] = res.Runs
		if bld == h.Cfg.Builds-1 {
			// Match statistics report the last build (only this task
			// writes them).
			out.CodeMatched = res.Optimized.CodeOrderStats.Matched
			out.HeapMatched = res.Optimized.HeapMatchStats.MatchedObjects
			if res.Optimized.Opts.HeapStrategy != nil && len(res.Optimized.Opts.HeapProfile) > 0 {
				out.HeapMatch = res.Optimized.HeapMatchStats.Breakdown(res.Optimized.Opts.HeapStrategy.Name())
			}
		}
		snaps[bld] = snap
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.Measures = measures
	for _, runs := range profiling {
		out.Profiling = append(out.Profiling, runs...)
	}
	out.Pipeline = compactSnapshots(snaps)
	return out, nil
}

// metricOf selects the figure metric of a strategy from the registry's
// section claims: text faults for code strategies, heap faults for heap
// strategies, their sum when a strategy reorders both, per Sec. 7.1.
func metricOf(strategy string, m RunMeasure) float64 {
	info, ok := core.StrategyByName(strategy)
	switch {
	case ok && info.Text && info.Heap:
		return m.TextFaults + m.HeapFaults
	case ok && info.Text:
		return m.TextFaults
	default:
		return m.HeapFaults
	}
}

// FactorCell computes the baseline/optimized factor cell for one metric.
// A zero optimized mean makes the ratio unmeasurable; the cell is then
// explicitly marked degenerate (NaN factor) instead of carrying a silent
// Factor == 0, which would read as "0× = infinitely worse" in CSV/charts.
func FactorCell(workload, strategy string, baseline, optimized []float64) Cell {
	bm, om := Mean(baseline), Mean(optimized)
	c := Cell{
		Workload: workload, Strategy: strategy,
		BaselineMean: bm, OptimizedMean: om,
	}
	if om == 0 {
		c.Degenerate = true
		c.Factor = math.NaN()
		c.CI = math.NaN()
		return c
	}
	c.Factor = bm / om
	c.CI = RatioCI(bm, CI95(baseline), om, CI95(optimized))
	return c
}
