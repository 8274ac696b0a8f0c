// Package nimage is a simulated GraalVM Native Image toolchain that
// reproduces the system of "Improving Native-Image Startup Performance"
// (Basso, Prokopec, Rosà, Binder — CGO 2025): profile-guided reordering of
// a binary's code (.text) and heap-snapshot (.svm_heap) sections to reduce
// the page faults of cold program starts.
//
// The package is a façade over the toolchain's subsystems:
//
//   - programs are written in a register-based object-oriented mini-IR
//     (NewProgramBuilder) or taken from the built-in benchmark suite
//     (AWFY, Microservices — the workloads of the paper's evaluation);
//   - BuildImage compiles a program into a binary image: a size-driven
//     inliner forms compilation units, class initializers execute at build
//     time, and the resulting heap is snapshotted into the image;
//   - ProfileAndOptimize runs the paper's full methodology (Fig. 1):
//     instrumented build → tracing profiling run (Ball–Larus path tracing
//     with path cutting) → post-processing into ordering profiles →
//     profile-guided optimized build, for any of the Strategies;
//   - images execute on a simulated OS (page cache, demand paging,
//     fault-around) so page faults per section and cold-start time are
//     measured deterministically;
//   - NewHarness reproduces the paper's evaluation: Figures 2–5, the
//     profiling-overhead table, the accessed-object fraction, and the
//     Fig. 6 page-grid visualization.
//
// See the runnable programs under examples/ for typical usage, DESIGN.md
// for the system inventory, and EXPERIMENTS.md for paper-vs-measured
// results.
package nimage

import (
	"nimage/internal/core"
	"nimage/internal/eval"
	"nimage/internal/graal"
	"nimage/internal/heap"
	"nimage/internal/image"
	"nimage/internal/ir"
	"nimage/internal/obs"
	"nimage/internal/obs/affinity"
	"nimage/internal/obs/attrib"
	"nimage/internal/osim"
	"nimage/internal/profiler"
	"nimage/internal/textviz"
	"nimage/internal/verify"
	"nimage/internal/vm"
	"nimage/internal/workloads"
)

// Program construction (the mini-IR).

// Program is a resolved program of the mini object language.
type Program = ir.Program

// ProgramBuilder constructs programs through the embedded DSL.
type ProgramBuilder = ir.Builder

// NewProgramBuilder starts building a program.
func NewProgramBuilder(name string) *ProgramBuilder { return ir.NewBuilder(name) }

// Method is one method of a program.
type Method = ir.Method

// Disassemble renders a method body in readable textual form.
func Disassemble(m *Method) string { return ir.Disassemble(m) }

// ClassBuilder, MethodBuilder, and BlockBuilder construct classes, methods,
// and basic blocks through the DSL.
type (
	ClassBuilder  = ir.ClassBuilder
	MethodBuilder = ir.MethodBuilder
	BlockBuilder  = ir.BlockBuilder
)

// Reg names a virtual register of a method under construction.
type Reg = ir.Reg

// TypeRef names an IR type.
type TypeRef = ir.TypeRef

// Type constructors of the mini-IR.
func IntType() TypeRef               { return ir.Int() }
func FloatType() TypeRef             { return ir.Float() }
func VoidType() TypeRef              { return ir.Void() }
func StringType() TypeRef            { return ir.String() }
func RefType(name string) TypeRef    { return ir.Ref(name) }
func ArrayType(elem TypeRef) TypeRef { return ir.Array(elem) }

// Arithmetic and comparison operators of the DSL.
const (
	OpAdd = ir.Add
	OpSub = ir.Sub
	OpMul = ir.Mul
	OpDiv = ir.Div
	OpRem = ir.Rem
	OpAnd = ir.And
	OpOr  = ir.Or
	OpXor = ir.Xor

	CmpEq = ir.Eq
	CmpNe = ir.Ne
	CmpLt = ir.Lt
	CmpLe = ir.Le
	CmpGt = ir.Gt
	CmpGe = ir.Ge
)

// Image building.

// Image is a built Native-Image binary plus its metadata.
type Image = image.Image

// BuildOptions configures a single image build.
type BuildOptions = image.Options

// Build kinds (BuildOptions.Kind).
const (
	KindRegular      = image.KindRegular
	KindInstrumented = image.KindInstrumented
	KindOptimized    = image.KindOptimized
)

// CompilerConfig holds the simulated compiler's tuning knobs.
type CompilerConfig = graal.Config

// DefaultCompilerConfig returns the evaluation defaults.
func DefaultCompilerConfig() CompilerConfig { return graal.DefaultConfig() }

// BuildImage builds one image of a program.
func BuildImage(p *Program, opts BuildOptions) (*Image, error) { return image.Build(p, opts) }

// The profile-guided pipeline (Fig. 1 of the paper).

// PipelineOptions configures ProfileAndOptimize.
type PipelineOptions = image.PipelineOptions

// PipelineResult is the outcome of the pipeline: the optimized image plus
// the profiling-run reports.
type PipelineResult = image.PipelineResult

// ProfileAndOptimize runs instrumented build → profiling run →
// post-processing → optimized build for one ordering strategy.
func ProfileAndOptimize(p *Program, opts PipelineOptions) (*PipelineResult, error) {
	return image.BuildOptimized(p, opts)
}

// DumpMode selects how per-thread trace buffers reach the trace file
// (Sec. 6.1): DumpOnFull flushes when full and at thread termination —
// events still buffered when the process is SIGKILLed are LOST — while
// MemoryMapped survives abnormal termination at a higher per-event cost.
// Microservice workloads (killed after their first response) must use
// MemoryMapped.
type DumpMode = profiler.DumpMode

// Trace-buffer dump modes.
const (
	DumpOnFull   = profiler.DumpOnFull
	MemoryMapped = profiler.MemoryMapped
)

// Ordering strategies: the paper's profile-guided layouts (Sec. 4 and 5)
// plus the graph-based serve layouts over the recorded affinity graph
// (c3 chain clustering, ext-TSP chain ordering).
const (
	StrategyCU          = core.StrategyCU
	StrategyMethod      = core.StrategyMethod
	StrategyIncremental = core.StrategyIncremental
	StrategyStructural  = core.StrategyStructural
	StrategyHeapPath    = core.StrategyHeapPath
	StrategyCombined    = core.StrategyCombined
	StrategyC3          = core.StrategyC3
	StrategyExtTSP      = core.StrategyExtTSP
	StrategySLOSearch   = core.StrategySLOSearch
)

// Strategies lists the cold-start strategies in figure order (the
// registry's eval set: the paper's six). The graph-based layouts are
// serve-only (ServeStrategies); every strategy still bakes by name.
func Strategies() []string { return eval.Strategies() }

// HeapStrategy computes 64-bit object identities for heap-snapshot
// matching; implementations: incremental id, structural hash, heap path.
type HeapStrategy = core.HeapStrategy

// HeapStrategies returns the three identity strategies of the paper.
func HeapStrategies() []HeapStrategy { return core.HeapStrategies() }

// HeapObject is one object of the build-time heap / heap snapshot.
type HeapObject = heap.Object

// HeapSnapshot is the image heap embedded in a binary.
type HeapSnapshot = heap.Snapshot

// Entity wraps a heap value for the identity algorithms (Algorithms 1–3).
type Entity = heap.Entity

// ObjEntity wraps an object reference as an Entity.
func ObjEntity(o *HeapObject) Entity { return heap.ObjEntity(o) }

// OrderObjects applies a heap-ordering profile to a snapshot's objects
// (custom-strategy building block; see examples/customstrategy).
func OrderObjects(objs []*HeapObject, ids map[*HeapObject]uint64, profile []uint64) core.MatchResult {
	return core.OrderObjects(objs, ids, profile)
}

// MatchBreakdown is the serializable per-strategy summary of a match:
// matched / unmatched / collision-grouped objects and the match rate.
type MatchBreakdown = core.MatchBreakdown

// Observability.
//
// The toolchain is instrumented throughout with a lightweight metrics
// registry: image builds emit per-stage spans and size gauges, the OS
// simulator emits per-section fault timelines, the profiler its probe and
// buffer statistics, and the interpreter its instruction mix. Attach a
// registry through BuildOptions.Obs, PipelineOptions.Obs, or OS.Obs; a nil
// registry (the default) makes every instrumentation site a no-op.

// ObsRegistry collects counters, gauges, histograms, spans, and timelines.
type ObsRegistry = obs.Registry

// ObsSnapshot is a deterministic point-in-time copy of a registry.
type ObsSnapshot = obs.Snapshot

// NewObsRegistry creates an empty metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// RunReport is the observability snapshot attached to each measured cold
// start (one per build) when the harness runs with EvalConfig.Observe.
type RunReport = eval.RunReport

// Fault attribution.
//
// When a process runs with an obs registry (or OS.AttributeFaults), every
// simulated page fault is attributed to the symbols on the faulted page —
// the CUs of .text, the objects of .svm_heap, the native tail, and the
// header — yielding a per-symbol fault table with cold-start ordinals and
// fault-around waste. Tables diff by build-stable symbol names across
// layouts, and export as pprof profiles or Chrome trace-event JSON
// (`nimage faults`, `nimage report -artifacts`).

// AttribTable is the per-symbol fault attribution of one or more cold runs.
type AttribTable = attrib.Table

// AttribSymbol is one symbol's aggregated fault record.
type AttribSymbol = attrib.SymbolFaults

// AttribDiff is the eliminated/survived/new symbol comparison of two
// tables (baseline vs optimized layout).
type AttribDiff = attrib.Diff

// Attribution table operations: diff two tables, merge several, serialize,
// and export (pprof protobuf / Chrome trace-event JSON).
var (
	DiffAttribTables  = attrib.DiffTables
	MergeAttribTables = attrib.Merge
	WriteAttribTable  = attrib.WriteTable
	ReadAttribTable   = attrib.ReadTable
	WriteAttribPprof  = attrib.WritePprof
	WriteAttribTrace  = attrib.WriteChromeTrace
)

// FaultTableText renders the ranked cold-symbol table (limit <= 0: all).
func FaultTableText(t *AttribTable, limit int) string { return textviz.FaultTable(t, limit) }

// FaultDiffText renders a table diff (limit <= 0: all symbols per group).
func FaultDiffText(d *AttribDiff, limit int) string { return textviz.FaultDiff(d, limit) }

// Temporal co-access affinity.
//
// When a process runs with an obs registry (or OS.TrackAffinity), a
// streaming recorder folds the coarse page-access clock plus the fault and
// eviction streams into a weighted symbol×symbol affinity graph: which
// symbols are hot together within a co-residency window, and which follow
// each other. Graphs score candidate layouts statically (locality,
// working-set pages per window, predicted refaults under pressure) via
// layout scorecards — the cheap inner loop behind `nimage affinity` and
// the serve figures' scorecard column.

// AffinityGraph is the weighted co-access graph of one or more runs
// (schema nimage.affinity/v1).
type AffinityGraph = affinity.Graph

// AffinityConfig tunes the recorder (window size, edge budget, decay).
type AffinityConfig = affinity.Config

// AffinityScorecard is the static layout-quality prediction of one
// strategy against a recorded graph.
type AffinityScorecard = affinity.Scorecard

// AffinityPlacement resolves graph nodes into a candidate layout by
// symbol name.
type AffinityPlacement = affinity.Placement

// Affinity graph operations: merge several graphs, serialize, export
// (GraphViz DOT / Chrome trace-event JSON), and score layouts.
var (
	MergeAffinityGraphs    = affinity.Merge
	WriteAffinityGraph     = affinity.WriteGraph
	ReadAffinityGraph      = affinity.ReadGraph
	WriteAffinityDOT       = affinity.WriteDOT
	WriteAffinityTrace     = affinity.WriteChromeTrace
	NewAffinityPlacement   = affinity.NewPlacement
	ScoreAffinity          = affinity.Score
	AffinityRefaultFactors = affinity.RefaultFactors
)

// AffinityTableText renders the ranked top-edge table (limit <= 0: all).
func AffinityTableText(g *AffinityGraph, limit int) string { return textviz.AffinityTable(g, limit) }

// AffinityDiffText renders the edge-weight diff of two graphs ranked by
// |delta| (limit <= 0: all changed edges).
func AffinityDiffText(base, opt *AffinityGraph, limit int) string {
	return textviz.AffinityDiff(base, opt, limit)
}

// ScorecardTableText renders per-strategy layout scorecards ranked best
// first.
func ScorecardTableText(cards []*AffinityScorecard) string { return textviz.ScorecardTable(cards) }

// EvalReport is the consolidated observability document of an evaluation
// (see Harness.Report; `nimage-eval -figure report` regenerates it as
// output/report.json).
type EvalReport = eval.Report

// Image recipes (.nimg container).

// ImageRecipe is the portable form of a build: program + build options +
// ordering profiles. Builds are deterministic functions of the recipe, so
// serializing the recipe is serializing the image.
type ImageRecipe = image.Recipe

// RecipeOf captures the recipe of a built image.
func RecipeOf(img *Image) ImageRecipe { return image.RecipeOf(img) }

// WriteRecipe / ReadRecipe serialize recipes in the .nimg container format.
var (
	WriteRecipe = image.WriteRecipe
	ReadRecipe  = image.ReadRecipe
)

// Execution environment.

// OS is the simulated operating system (page cache, demand paging).
type OS = osim.OS

// Device describes a storage device.
type Device = osim.Device

// NewOS creates an OS over the given device.
func NewOS(dev Device) *OS { return osim.NewOS(dev) }

// SSD and NFS return the two devices of the evaluation (Sec. 7.1).
func SSD() Device { return osim.SSD() }

// NFS returns the network-file-system device.
func NFS() Device { return osim.NFS() }

// DeviceByName resolves "ssd" or "nfs"; any other name is an error.
func DeviceByName(name string) (Device, error) { return osim.DeviceByName(name) }

// Page-cache pressure (serve mode).
//
// Beyond the all-or-nothing DropCaches of cold-start measurement, the OS
// models pages leaving the cache while a process runs: a resident-page
// budget (OS.CacheBudget) enforced under an eviction policy, and explicit
// Reclaim calls for inter-tenant pressure. Evictions unmap pages from live
// mappings, so re-accessed pages take major re-faults — the serve-mode
// churn the Harness's serve protocol measures.

// EvictionPolicy selects the page-replacement algorithm.
type EvictionPolicy = osim.EvictionPolicy

// Eviction policies.
const (
	EvictLRU   = osim.EvictLRU
	EvictClock = osim.EvictClock
)

// Process is one execution of an image over an OS.
type Process = image.Process

// RunStats summarizes one run: per-section page faults and simulated time.
type RunStats = image.Stats

// Hooks observe execution events (advanced use; zero value is fine).
type Hooks = vm.Hooks

// Workloads (the paper's benchmarks).

// Workload is one benchmark program.
type Workload = workloads.Workload

// AWFY returns the 14 "Are We Fast Yet?" benchmarks.
func AWFY() []Workload { return workloads.AWFY() }

// Microservices returns the micronaut/quarkus/spring helloworld workloads.
func Microservices() []Workload { return workloads.Microservices() }

// AllWorkloads returns every workload of the evaluation.
func AllWorkloads() []Workload { return workloads.All() }

// ServeWorkloads returns the serve-mode workloads (long-lived services
// driven with request bursts; not part of AllWorkloads so the cold-start
// figures keep their set).
func ServeWorkloads() []Workload { return workloads.Serve() }

// WorkloadByName looks a workload up by figure name.
func WorkloadByName(name string) (Workload, error) { return workloads.ByName(name) }

// Equivalence verification.
//
// The verifier checks that profile-guided reordering is semantics-
// preserving: for every workload × strategy it builds the baseline,
// instrumented, and optimized images, runs them all, and asserts identical
// observable behavior (output, instruction counts, journaled mutations of
// build-time state); it further asserts that the optimized image is a pure
// permutation of an unreordered build of the same compilation, and that
// feeding an image's own layout back as its profile reproduces the image
// (and its fault counts) exactly. See `nimage verify`.

// VerifyOptions configures a verification run.
type VerifyOptions = verify.Options

// VerifyReport is the outcome: the checks evaluated and any divergences.
type VerifyReport = verify.Report

// VerifyDivergence is one failed equivalence check.
type VerifyDivergence = verify.Divergence

// Verify runs the equivalence verifier.
func Verify(opts VerifyOptions) (*VerifyReport, error) { return verify.Run(opts) }

// VerifyStrategies lists the strategies the verifier covers by default.
func VerifyStrategies() []string { return verify.Strategies() }

// GeneratedWorkload returns the seeded random workload the verifier (and
// `nimage verify -seeds`) uses for generative testing.
func GeneratedWorkload(seed uint64) Workload { return workloads.Generated(seed) }

// Evaluation harness (Sec. 7).

// EvalConfig tunes the measurement protocol.
type EvalConfig = eval.Config

// DefaultEvalConfig returns the default protocol: 3 builds, each measured
// by one cold start (the paper runs 10 builds × 10 cold iterations; here
// repeated cold starts of one image are identical).
func DefaultEvalConfig() EvalConfig { return eval.DefaultConfig() }

// Harness runs the measurement protocol and produces the figures.
type Harness = eval.Harness

// ResultTable is the data behind one figure.
type ResultTable = eval.Table

// NewHarness creates an evaluation harness.
func NewHarness(cfg EvalConfig) *Harness { return eval.NewHarness(cfg) }

// Serve-mode measurement (Harness.MeasureServe / Harness.ServeFigure):
// startup followed by request bursts with page-cache pressure between
// them, producing per-burst latency quantiles, fault and re-fault counts,
// and residency telemetry. See `nimage serve`.

// ServeConfig tunes one serve scenario (bursts, pressure, traffic skew).
type ServeConfig = eval.ServeConfig

// DefaultServeConfig returns the serve-mode defaults.
func DefaultServeConfig() ServeConfig { return eval.DefaultServeConfig() }

// ServeOutcome is one build's serve run: startup, bursts, warm aggregates.
type ServeOutcome = eval.ServeOutcome

// BurstMeasure is the telemetry of one request burst.
type BurstMeasure = eval.BurstMeasure

// ServeStrategies lists the layouts the serve figures compare.
func ServeStrategies() []string { return eval.ServeStrategies() }

// LayoutBaseline labels the unmodified (identity-layout) images in
// attribution tables, affinity graphs, and serve outcomes.
const LayoutBaseline = eval.LayoutBaseline

// BurstTableText renders per-burst serve telemetry as a text table.
func BurstTableText(title string, bursts []BurstMeasure) string {
	return textviz.BurstTable(title, bursts)
}

// Serve SLO observatory (Harness.SLOReport / `nimage slo`): concurrent
// request streams multiplexed against one long-lived mapping, per-request
// traces, and pressure-sweep SLO scorecards with a telemetry-overhead
// control.

// SLOTarget is one latency objective (quantile + budget).
type SLOTarget = obs.SLOTarget

// SLOAttainment is one target's score over a measured latency sample.
type SLOAttainment = obs.SLOAttainment

// SLOEntry is one (workload, strategy, pressure) cell of the SLO sweep.
type SLOEntry = obs.SLOEntry

// SLOOverhead is one telemetry-on/off overhead control run.
type SLOOverhead = obs.SLOOverhead

// SLOReport is the pressure-sweep SLO document (nimage.slo/v1).
type SLOReport = obs.SLOReport

// RequestTrace is the bounded per-request recording of one serve run.
type RequestTrace = obs.RequestTrace

// RequestRecord is the telemetry of one served request.
type RequestRecord = obs.RequestRecord

// DefaultSLOTargets returns the default serve objectives
// (p50/p95/p99/p99.9 latency budgets).
func DefaultSLOTargets() []SLOTarget { return obs.DefaultSLOTargets() }

// ParseSLOTargets parses a -slo flag value like "p50=100us,p99=2ms".
func ParseSLOTargets(s string) ([]SLOTarget, error) { return obs.ParseSLOTargets(s) }

// DefaultSLOPressures returns the default sweep pressure levels (0/30/70%).
func DefaultSLOPressures() []int { return eval.DefaultSLOPressures() }

// SLOAttainmentOf scores a sorted latency sample against each target.
func SLOAttainmentOf(sorted []float64, targets []SLOTarget) []SLOAttainment {
	return obs.Attainment(sorted, targets)
}

var (
	// WriteSLOReport / ReadSLOReport are the nimage.slo/v1 codec.
	WriteSLOReport = obs.WriteSLOReport
	ReadSLOReport  = obs.ReadSLOReport
	// WriteRequestTrace / ReadRequestTrace are the nimage.reqtrace/v1 codec;
	// WriteRequestChromeTrace exports a trace as Chrome trace-event JSON
	// (one track per stream) for chrome://tracing and Perfetto.
	WriteRequestTrace       = obs.WriteRequestTrace
	ReadRequestTrace        = obs.ReadRequestTrace
	WriteRequestChromeTrace = obs.WriteRequestChromeTrace
)

// SLOTableText renders an SLO report's attainment scorecard as a text
// table.
func SLOTableText(title string, rep *SLOReport) string { return textviz.SLOTable(title, rep) }

// SLOOverheadTableText renders an SLO report's telemetry-overhead
// control table.
func SLOOverheadTableText(rep *SLOReport) string { return textviz.SLOOverheadTable(rep) }

// SLO-driven layout search (Harness.SearchLayout / `nimage tune`): a
// budget-bounded rebake loop that measures the c3 and ext-tsp seed
// layouts with the serve scorecard, generates parameter sweeps and
// seeded perturbations of the incumbent, promotes the statically
// best-predicted candidates to full measurement, and accepts only on a
// strict scorecard improvement. The slo-search strategy bakes the
// searched winner.

// SearchConfig tunes the search (budget, promotion width, seed,
// pressures, targets, serve scenario).
type SearchConfig = eval.SearchConfig

// DefaultSearchConfig returns the search defaults.
func DefaultSearchConfig() SearchConfig { return eval.DefaultSearchConfig() }

// SearchScore is one candidate's measured scorecard: SLO attainment,
// budget burn, and the refault-factor geomean over the swept pressures.
type SearchScore = eval.SearchScore

// SearchPressureScore is one pressure level's slice of a SearchScore.
type SearchPressureScore = eval.SearchPressureScore

// SearchResult is the outcome of one search: the winning order, its
// score, the full journal, and every measured candidate order.
type SearchResult = eval.SearchResult

// SearchReport is the per-iteration search journal (nimage.search/v1).
type SearchReport = obs.SearchReport

// WriteSearchReport / ReadSearchReport are the nimage.search/v1 codec.
var (
	WriteSearchReport = obs.WriteSearchReport
	ReadSearchReport  = obs.ReadSearchReport
)

// SearchTableText renders a search journal's trajectory as a text table.
func SearchTableText(title string, rep *SearchReport) string { return textviz.SearchTable(title, rep) }

// Fleet observatory (Harness.MeasureFleet / `nimage fleet`): N tenants
// (serve workload × strategy pairs) served concurrently from one
// simulated OS under a shared page-cache budget, with per-tenant
// telemetry, SLO attainment, isolation factors against each tenant's
// solo run, and the cross-tenant eviction interference matrix.

// TenantSpec names one fleet tenant: a serve workload × strategy pair
// with an optional residency quota (percent of the shared budget).
type TenantSpec = eval.TenantSpec

// FleetConfig tunes one multi-tenant serve scenario.
type FleetConfig = eval.FleetConfig

// TenantOutcome is one tenant's view of a fleet run.
type TenantOutcome = eval.TenantOutcome

// FleetOutcome is one build's fleet run: tenants plus the interference
// matrix and the whole-OS totals the per-tenant counters partition.
type FleetOutcome = eval.FleetOutcome

// FleetTenant is one tenant's serialized scorecard, and FleetBurst one
// burst of its timeline.
type FleetTenant = obs.FleetTenant

type FleetBurst = obs.FleetBurst

// FleetReport is the fleet observatory document (nimage.fleet/v1).
type FleetReport = obs.FleetReport

var (
	// WriteFleetReport / ReadFleetReport are the nimage.fleet/v1 codec;
	// WriteFleetChromeTrace exports a fleet run as Chrome trace-event JSON
	// (one track per tenant plus an eviction-pressure counter track).
	WriteFleetReport      = obs.WriteFleetReport
	ReadFleetReport       = obs.ReadFleetReport
	WriteFleetChromeTrace = obs.WriteFleetChromeTrace
)

// FleetTableText renders a fleet report's per-tenant scorecard as a text
// table.
func FleetTableText(title string, rep *FleetReport) string { return textviz.FleetTable(title, rep) }

// FleetMatrixText renders the interference matrix as a text grid.
func FleetMatrixText(evictedBy [][]int64, total int64) string {
	return textviz.FleetMatrix(evictedBy, total)
}

// Visualization (Fig. 6).

// PageState classifies one page of a section after a run.
type PageState = osim.PageState

// RenderPageGrid renders page states as an ASCII grid ('#' faulted, 'o'
// mapped without fault, '.' untouched).
func RenderPageGrid(states []PageState, width int) string { return textviz.Grid(states, width) }

// RenderPageGridsSideBySide renders the Fig. 6 comparison of two layouts.
func RenderPageGridsSideBySide(titleA string, a []PageState, titleB string, b []PageState, width int) string {
	return textviz.SideBySide(titleA, a, titleB, b, width)
}

// RenderPagePPM renders page states as a plain PPM image string.
func RenderPagePPM(states []PageState, width, scale int) string {
	return textviz.PPM(states, width, scale)
}
