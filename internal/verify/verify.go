package verify

import (
	"fmt"
	"io"
	"strings"

	"nimage/internal/core"
	"nimage/internal/graal"
	"nimage/internal/image"
	"nimage/internal/profiler"
	"nimage/internal/workloads"
)

// Options configures an equivalence-verification run.
type Options struct {
	// Workloads to verify. Empty verifies DefaultWorkloads().
	Workloads []workloads.Workload
	// Strategies to verify per workload. Empty verifies every strategy of
	// the evaluation (Strategies()).
	Strategies []string
	// Compiler tuning; the zero value selects graal.DefaultConfig().
	Compiler graal.Config
	// BaseSeed is the build seed of the baseline/optimized builds; the
	// instrumented build uses BaseSeed+100 (the seeds differ in practice,
	// Sec. 5). Zero selects seed 1.
	BaseSeed uint64
	// Seeds appends that many seeded generated workloads
	// (workloads.Generated) to the workload set.
	Seeds int
	// Log, when non-nil, receives one progress line per workload×strategy.
	Log io.Writer
}

// Strategies returns the strategy names the verifier exercises by
// default: every strategy the registry knows — the evaluation's code- and
// heap-ordering schemes and the graph-based serve layouts — so
// registering a strategy enrolls it in verification automatically.
func Strategies() []string {
	return core.StrategyNames()
}

// DefaultWorkloads returns the workload set verified when none is given:
// one AWFY benchmark and one microservice — the two workload shapes of the
// evaluation (batch print-and-exit vs. threaded respond-and-kill).
func DefaultWorkloads() []workloads.Workload {
	return []workloads.Workload{
		mustWorkload("Bounce"),
		mustWorkload("micronaut"),
	}
}

func mustWorkload(name string) workloads.Workload {
	w, err := workloads.ByName(name)
	if err != nil {
		panic(err)
	}
	return w
}

// Divergence is one failed equivalence check.
type Divergence struct {
	Workload string `json:"workload"`
	Strategy string `json:"strategy"`
	// Check names the failed invariant ("output", "steps", "write-journal",
	// "full-journal", "heap-state", "cu-multiset", ...).
	Check string `json:"check"`
	// Builds names the compared builds ("baseline vs optimized", ...).
	Builds string `json:"builds,omitempty"`
	// Detail describes the first divergence.
	Detail string `json:"detail"`
	// Step is the ordinal of the first diverging event (-1 when the check
	// has no event stream).
	Step int `json:"step"`
	// Symbol names the responsible CU or object when attributable.
	Symbol string `json:"symbol,omitempty"`
}

func (d Divergence) String() string {
	s := fmt.Sprintf("%s/%s %s", d.Workload, d.Strategy, d.Check)
	if d.Builds != "" {
		s += " (" + d.Builds + ")"
	}
	s += ": " + d.Detail
	if d.Symbol != "" {
		s += " [" + d.Symbol + "]"
	}
	return s
}

// Report is the outcome of a verification run.
type Report struct {
	Workloads   []string     `json:"workloads"`
	Strategies  []string     `json:"strategies"`
	Pairs       int          `json:"pairs"`  // workload×strategy pairs verified
	Checks      int          `json:"checks"` // equivalence checks evaluated
	Divergences []Divergence `json:"divergences,omitempty"`
}

// OK reports whether every check passed.
func (r *Report) OK() bool { return len(r.Divergences) == 0 }

// Summary renders a one-line outcome.
func (r *Report) Summary() string {
	if r.OK() {
		return fmt.Sprintf("verify: OK — %d checks over %d workload×strategy pairs (%s × %s)",
			r.Checks, r.Pairs, strings.Join(r.Workloads, ","), strings.Join(r.Strategies, ","))
	}
	return fmt.Sprintf("verify: FAILED — %d of %d checks diverged over %d pairs",
		len(r.Divergences), r.Checks, r.Pairs)
}

// verifier carries the per-run state of one Run call.
type verifier struct {
	opts Options
	rep  *Report
}

// Run performs the full differential + metamorphic verification and
// returns the report. Build or execution failures abort with an error;
// behavioral divergences are collected in the report instead.
func Run(opts Options) (*Report, error) {
	if len(opts.Workloads) == 0 {
		opts.Workloads = DefaultWorkloads()
	}
	for i := 0; i < opts.Seeds; i++ {
		opts.Workloads = append(opts.Workloads, workloads.Generated(uint64(i+1)))
	}
	if len(opts.Strategies) == 0 {
		opts.Strategies = Strategies()
	}
	if opts.Compiler == (graal.Config{}) {
		opts.Compiler = graal.DefaultConfig()
	}
	if opts.BaseSeed == 0 {
		opts.BaseSeed = 1
	}

	v := &verifier{opts: opts, rep: &Report{Strategies: opts.Strategies}}
	for _, w := range opts.Workloads {
		v.rep.Workloads = append(v.rep.Workloads, w.Name)
		if err := v.verifyWorkload(w); err != nil {
			return nil, err
		}
	}
	return v.rep, nil
}

func (v *verifier) logf(format string, args ...any) {
	if v.opts.Log != nil {
		fmt.Fprintf(v.opts.Log, format+"\n", args...)
	}
}

// check records one evaluated invariant; fail == "" means it held.
func (v *verifier) check(w, strategy, name, builds, fail string, step int, symbol string) {
	v.rep.Checks++
	if fail == "" {
		return
	}
	v.rep.Divergences = append(v.rep.Divergences, Divergence{
		Workload: w, Strategy: strategy, Check: name,
		Builds: builds, Detail: fail, Step: step, Symbol: symbol,
	})
}

// verifyWorkload runs the differential builds and all checks for one
// workload across every strategy. The baseline and reference builds are
// strategy-independent and built once.
func (v *verifier) verifyWorkload(w workloads.Workload) error {
	p := w.Build()
	seed := v.opts.BaseSeed
	mode := profiler.ModeFor(w.Service)

	build := func(kind image.BuildKind, instr graal.Instrumentation, o image.Options) (*image.Image, error) {
		o.Kind = kind
		o.Instr = instr
		o.Compiler = v.opts.Compiler
		o.Mode = mode
		return image.Build(p, o)
	}

	v.logf("verify %s: baseline + reference builds", w.Name)
	baseImg, err := build(image.KindRegular, 0, image.Options{BuildSeed: seed})
	if err != nil {
		return fmt.Errorf("verify: %s baseline build: %w", w.Name, err)
	}
	base, err := recordRun(baseImg, w.Service, w.Args, "baseline")
	if err != nil {
		return err
	}
	// The reference build compiles like the optimized image (PGO inlining,
	// same seed) but applies no profiles: default layout order. Every
	// optimized image must be a pure permutation of it.
	refImg, err := build(image.KindOptimized, 0, image.Options{BuildSeed: seed})
	if err != nil {
		return fmt.Errorf("verify: %s reference build: %w", w.Name, err)
	}
	ref, err := recordRun(refImg, w.Service, w.Args, "reference")
	if err != nil {
		return err
	}

	instrRecs := map[graal.Instrumentation]*runRecord{}
	for _, strategy := range v.opts.Strategies {
		// The registry's probe kinds: two for the combined strategy, none
		// for the graph strategies (their recording run is
		// uninstrumented, so there is no instrumented build to replay).
		info, ok := core.StrategyByName(strategy)
		if !ok {
			return fmt.Errorf("verify: unknown strategy %q", strategy)
		}
		var instrs []*runRecord
		for _, kind := range info.Instr {
			rec, ok := instrRecs[kind]
			if !ok {
				img, err := build(image.KindInstrumented, kind, image.Options{BuildSeed: seed + 100})
				if err != nil {
					return fmt.Errorf("verify: %s instrumented build (%v): %w", w.Name, kind, err)
				}
				rec, err = recordRun(img, w.Service, w.Args, "instrumented/"+kind.String())
				if err != nil {
					return err
				}
				instrRecs[kind] = rec
			}
			instrs = append(instrs, rec)
		}

		v.logf("verify %s: strategy %q pipeline", w.Name, strategy)
		res, err := image.BuildOptimized(p, image.PipelineOptions{
			Compiler:         v.opts.Compiler,
			Strategy:         strategy,
			InstrumentedSeed: seed + 100,
			OptimizedSeed:    seed,
			Mode:             mode,
			Args:             w.Args,
			Service:          w.Service,
		})
		if err != nil {
			return fmt.Errorf("verify: %s pipeline (%s): %w", w.Name, strategy, err)
		}
		opt, err := recordRun(res.Optimized, w.Service, w.Args, "optimized")
		if err != nil {
			return err
		}

		// Identity reorder: rebuild with profiles describing the optimized
		// image's own layout; the result must reproduce it exactly.
		code, heapProf := identityProfiles(res.Optimized)
		opt2Img, err := build(image.KindOptimized, 0, image.Options{
			BuildSeed:    seed,
			CodeProfile:  code,
			HeapProfile:  heapProf,
			HeapStrategy: seqIDStrategy{},
		})
		if err != nil {
			return fmt.Errorf("verify: %s identity rebuild (%s): %w", w.Name, strategy, err)
		}
		opt2, err := recordRun(opt2Img, w.Service, w.Args, "identity-reorder")
		if err != nil {
			return err
		}

		v.rep.Pairs++
		v.differential(w, strategy, base, instrs, ref, opt, opt2)
		v.metamorphic(w.Name, strategy, refImg, res.Optimized, opt2Img)
		for _, c := range recipeChecks(res.Optimized) {
			v.check(w.Name, strategy, c.name, "optimized vs baked", c.fail, -1, "")
		}
	}
	return nil
}

// differential asserts the execution equivalences of one strategy's build
// set (see the package comment for which builds each invariant spans).
func (v *verifier) differential(w workloads.Workload, strategy string, base *runRecord, instrs []*runRecord, ref, opt, opt2 *runRecord) {
	everyBuild := append([]*runRecord{base}, instrs...)
	everyBuild = append(everyBuild, ref, opt, opt2)

	for _, r := range everyBuild[1:] {
		builds := base.build + " vs " + r.build

		fail, step := "", -1
		if base.outputDigest != r.outputDigest {
			step, fail = firstOutputDivergence(base, r)
		}
		v.check(w.Name, strategy, "output", builds, fail, step, "")

		fail = ""
		if base.steps != r.steps {
			fail = fmtCount("executed %d vs %d instructions", base.steps, r.steps)
		}
		v.check(w.Name, strategy, "steps", builds, fail, -1, "")

		fail, step = "", -1
		symbol := ""
		if base.writeDigest != r.writeDigest {
			step, fail, symbol = firstJournalDivergence(base, r, base.writes, r.writes)
		}
		v.check(w.Name, strategy, "write-journal", builds, fail, step, symbol)
	}

	// Full journal (including intern additions) and final heap state are
	// only comparable across builds sharing seed and compilation.
	sameCompilation := []*runRecord{ref, opt, opt2}
	for _, r := range sameCompilation[1:] {
		builds := ref.build + " vs " + r.build

		fail, step := "", -1
		symbol := ""
		if ref.journalDigest != r.journalDigest {
			step, fail, symbol = firstJournalDivergence(ref, r, ref.all, r.all)
		}
		v.check(w.Name, strategy, "full-journal", builds, fail, step, symbol)

		fail = ""
		if ref.heapDigest != r.heapDigest {
			fail = fmtCount("final heap digests differ: %#x vs %#x", ref.heapDigest, r.heapDigest)
		}
		v.check(w.Name, strategy, "heap-state", builds, fail, -1, "")
	}

	// Fault counts are invariant under the identity reorder: same layout,
	// same access sequence, same paging behavior.
	fail := ""
	if opt.textFaults != opt2.textFaults || opt.heapFaults != opt2.heapFaults || opt.totalFaults != opt2.totalFaults {
		fail = fmtCount("faults differ: text %d/%d heap %d/%d total %d/%d",
			opt.textFaults, opt2.textFaults, opt.heapFaults, opt2.heapFaults,
			opt.totalFaults, opt2.totalFaults)
	}
	v.check(w.Name, strategy, "identity-faults", opt.build+" vs "+opt2.build, fail, -1, "")
}

// metamorphic asserts the layout invariants of one strategy's images.
func (v *verifier) metamorphic(w, strategy string, ref, opt, opt2 *image.Image) {
	for _, c := range permutationChecks(ref, opt) {
		v.check(w, strategy, c.name, "reference vs optimized", c.fail, -1, "")
	}
	for _, img := range []*image.Image{ref, opt, opt2} {
		for _, c := range offsetChecks(img) {
			v.check(w, strategy, c.name, "", c.fail, -1, "")
		}
	}
	for _, c := range statsChecks(opt) {
		v.check(w, strategy, c.name, "", c.fail, -1, "")
	}
	for _, c := range identityChecks(opt, opt2) {
		v.check(w, strategy, c.name, "optimized vs identity-reorder", c.fail, -1, "")
	}
}
