package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"strings"

	"nimage/internal/core"
	"nimage/internal/eval"
	"nimage/internal/graal"
	"nimage/internal/heap"
	"nimage/internal/image"
	"nimage/internal/ir"
	"nimage/internal/murmur"
	"nimage/internal/obs"
	"nimage/internal/osim"
	"nimage/internal/profiler"
	"nimage/internal/vm"
	"nimage/internal/workloads"
)

// workloadSpec is one benchmark workload. Set-up builds what the timed ops
// need from the run seed alone; the instance then hands out the ops of
// each pass.
type workloadSpec struct {
	name  string
	why   string
	setup func(seed uint64, scale int) (instance, error)
}

// instance is one set-up of a workload.
type instance interface {
	// pass returns the ops of pass p in the order they run. Every pass
	// runs the same kinds of op; pass 0 defines the simulated outcome.
	pass(p int) []op
}

// op is one timed unit of work plus the checks of its results. Ops of one
// kind do the same work on different seeds.
type op struct {
	kind string
	run  func(c *opCtx) (opResult, error)
}

type opResult struct {
	outcomes []outcome
	layers   layerCounts
	failures []string
}

// layerCounts sums per-layer work counters over ops.
type layerCounts map[string]float64

func (l layerCounts) add(o layerCounts) {
	for k, v := range o {
		l[k] += v
	}
}

// outcome is the simulated result of one measured unit — a cold start, a
// serve build, a fleet tenant — as the sim_* metrics consume it.
type outcome struct {
	// key names the unit; a unit measured again must reproduce digest.
	key    string
	digest string
	// group names the units sharing one identity-layout baseline.
	group    string
	identity bool
	// simNanos is the simulated latency the unit is judged by; speedNanos
	// the simulated time its speedup over the identity layout compares;
	// faults its page faults per cold start, or major faults per 1000
	// requests.
	simNanos   float64
	speedNanos float64
	faults     float64
}

var workloadSpecs = []workloadSpec{
	{
		name:  "bake-micro",
		why:   "image bakes of the three microservices under every cold-start layout; the compile-side layers (graal, image, heap, profiler, postproc, core) do the work",
		setup: setupBakeMicro,
	},
	{
		name:  "start-awfy",
		why:   "cold starts of prebuilt AWFY images; the vm interpreter does the work and baking is all in set-up, so a bake change should not move it",
		setup: setupStartAWFY,
	},
	{
		name:  "serve-pressure",
		why:   "serve scenarios at 30% and 70% reclaim pressure; drives the osim evict/refault path and the eval serve loop with little vm work per request",
		setup: setupServePressure,
	},
	{
		name:  "fleet-budget",
		why:   "four tenants under one cache budget and quotas; evicts on every fault rather than between bursts and runs the fleet serve engine",
		setup: setupFleetBudget,
	},
}

func workloadByName(name string) (workloadSpec, error) {
	var names []string
	for _, s := range workloadSpecs {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// mix derives a nonzero 64-bit input from the run seed, a label and
// indices, so every input of a run follows from --seed alone.
func mix(seed uint64, label string, idx ...int) uint64 {
	buf := []byte(label)
	for _, i := range idx {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(i))
	}
	if v := murmur.Sum64Seed(buf, seed); v != 0 {
		return v
	}
	return 1
}

// shuffled returns ops in a seeded order per pass, so that a pass the
// deadline cuts short still samples every kind of op.
func shuffled(ops []op, seed uint64, p int) []op {
	rng := rand.New(rand.NewPCG(seed, uint64(p)))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func ceilDiv(n, d int) int { return (n + d - 1) / max(d, 1) }

// coldStart runs one cold start of img on o: DropCaches → NewProcess →
// Run (to the first response for services) → Stats → Close. It returns
// the closed process, whose mapping counters stay readable, and the
// program's printed output.
func coldStart(c *opCtx, w workloads.Workload, img *image.Image, o *osim.OS) (*image.Process, image.Stats, string, error) {
	var out strings.Builder
	hooks := vm.Hooks{OnPrint: func(_ int, v heap.Value) { writeValue(&out, v) }}
	var proc *image.Process
	var st image.Stats
	_ = c.span("osim.DropCaches", func() error { o.DropCaches(); return nil })
	err := c.span("image.NewProcess", func() (err error) {
		proc, err = img.NewProcess(o, hooks)
		return err
	})
	if err != nil {
		return nil, st, "", fmt.Errorf("starting %s: %w", w.Name, err)
	}
	proc.Machine.StopOnRespond = w.Service
	runErr := c.span("vm.Run", func() error { return proc.Run(w.Args...) })
	_ = c.span("image.Stats", func() error { st = proc.Stats(); return nil })
	_ = c.span("image.Close", func() error { proc.Close(); return nil })
	if runErr != nil {
		return nil, st, "", fmt.Errorf("running %s: %w", w.Name, runErr)
	}
	return proc, st, out.String(), nil
}

// startOutcome checks one finished cold start and returns its outcome and
// layer counts. A service is judged by its time to first response, a
// program run to completion by its total run time.
func startOutcome(w workloads.Workload, key, group string, identity bool, proc *image.Process, st image.Stats, output string) (outcome, layerCounts, []string) {
	var fails []string
	if st.Total != st.CPUTime+st.IOTime {
		fails = append(fails, fmt.Sprintf("%s: total %v != cpu %v + io %v", key, st.Total, st.CPUTime, st.IOTime))
	}
	var sectionSum int64
	for _, sf := range proc.Mapping.AllSectionFaults() {
		sectionSum += sf.Total()
	}
	if sectionSum != proc.Mapping.Faults {
		fails = append(fails, fmt.Sprintf("%s: section faults sum to %d, mapping took %d", key, sectionSum, proc.Mapping.Faults))
	}
	if want, ok := expected[w.Name]; !ok || output != want {
		fails = append(fails, fmt.Sprintf("%s: printed %q, want %q", key, output, want))
	}
	sim := st.Total
	if w.Service {
		sim = st.TimeToResponse
		if sim <= 0 {
			fails = append(fails, key+": service never responded")
		}
	}
	var faultAround int
	for _, pc := range proc.Mapping.PageClasses() {
		if pc == osim.PageMappedNoFault {
			faultAround++
		}
	}
	steps := proc.Machine.Steps
	out := outcome{
		key:        key,
		digest:     fmt.Sprintf("%+v steps=%d out=%q", st, steps, output),
		group:      group,
		identity:   identity,
		simNanos:   float64(sim.Nanoseconds()),
		speedNanos: float64(sim.Nanoseconds()),
		faults:     float64(st.TotalFaults),
	}
	layers := layerCounts{
		"vm.steps":               float64(steps),
		"osim.major_faults":      float64(proc.Mapping.MajorFaults),
		"osim.minor_faults":      float64(proc.Mapping.Faults - proc.Mapping.MajorFaults),
		"osim.text_faults":       float64(st.TextFaults.Total()),
		"osim.heap_faults":       float64(st.HeapFaults.Total()),
		"osim.faultaround_pages": float64(faultAround),
		"sim.cpu_ns":             float64((sim - st.IOTime).Nanoseconds()),
		"sim.io_ns":              float64(st.IOTime.Nanoseconds()),
	}
	return out, layers, fails
}

// ---------------------------------------------------------------------------
// bake-micro

// bakeLayouts are the layouts bake-micro bakes: the identity layout (a
// regular build) and every registered cold-start strategy except the
// graph layouts that only reorder for serve mode and the Pettis–Hansen
// baseline.
var bakeLayouts = []string{
	eval.LayoutBaseline,
	core.StrategyCU, core.StrategyMethod,
	core.StrategyIncremental, core.StrategyStructural, core.StrategyHeapPath,
	core.StrategyCombined, core.StrategyC3,
}

// bakePairs is the number of (instrumented, optimized) build-seed pairs
// per service and pass.
const bakePairs = 4

type bakeMicro struct {
	ws    []workloads.Workload
	progs []*ir.Program
	pairs [][2]uint64
	seed  uint64
}

func setupBakeMicro(seed uint64, scale int) (instance, error) {
	b := &bakeMicro{seed: seed}
	ws := workloads.Microservices()
	for _, w := range ws[:ceilDiv(len(ws), scale)] {
		b.ws = append(b.ws, w)
		b.progs = append(b.progs, w.Build())
	}
	for i := 0; i < ceilDiv(bakePairs, scale); i++ {
		b.pairs = append(b.pairs, [2]uint64{mix(seed, "bake-instrumented", i), mix(seed, "bake-optimized", i)})
	}
	return b, nil
}

func (b *bakeMicro) pass(p int) []op {
	var ops []op
	for wi := range b.ws {
		for pi := range b.pairs {
			for _, layout := range bakeLayouts {
				ops = append(ops, b.bake(wi, pi, layout))
			}
		}
	}
	return shuffled(ops, b.seed, p)
}

// bake times one bake of a service in a layout, then cold-starts the image
// twice to check its output and that the two starts agree.
func (b *bakeMicro) bake(wi, pi int, layout string) op {
	return op{kind: b.ws[wi].Name + "/" + layout, run: func(c *opCtx) (opResult, error) {
		w, prog, pair := b.ws[wi], b.progs[wi], b.pairs[pi]
		if c.traced() {
			c.registry = obs.NewRegistry()
		}
		var img *image.Image
		var res *image.PipelineResult
		var err error
		if layout == eval.LayoutBaseline {
			err = c.timed("image.Build", func() (err error) {
				img, err = image.Build(prog, image.Options{
					Kind: image.KindRegular, Compiler: graal.DefaultConfig(), BuildSeed: pair[1], Obs: c.registry,
				})
				return err
			})
		} else {
			err = c.timed("image.BuildOptimized", func() (err error) {
				res, err = image.BuildOptimized(prog, image.PipelineOptions{
					Compiler: graal.DefaultConfig(), Strategy: layout,
					InstrumentedSeed: pair[0], OptimizedSeed: pair[1],
					Mode: profiler.MemoryMapped, Args: w.Args, Service: w.Service, Obs: c.registry,
				})
				if err == nil {
					img = res.Optimized
				}
				return err
			})
		}
		if err != nil {
			return opResult{}, fmt.Errorf("baking %s/%s: %w", w.Name, layout, err)
		}
		key := fmt.Sprintf("%s/pair%d/%s", w.Name, pi, layout)
		r, err := startTwice(c, w, img, key, fmt.Sprintf("%s/pair%d", w.Name, pi), layout == eval.LayoutBaseline)
		if err != nil {
			return r, err
		}
		if res != nil {
			for _, run := range res.Runs {
				r.layers["profiler.trace_words"] += float64(run.TraceWords)
			}
			opt := res.Optimized
			if len(opt.Opts.CodeProfile) > 0 {
				r.layers["core.code_matched"] += float64(opt.CodeOrderStats.Matched)
				r.layers["core.code_profile"] += float64(opt.CodeOrderStats.ProfileLen)
			}
			if opt.Opts.HeapStrategy != nil && len(opt.Opts.HeapProfile) > 0 {
				r.layers["core.heap_matched"] += float64(opt.HeapMatchStats.MatchedEntries)
				r.layers["core.heap_profile"] += float64(opt.HeapMatchStats.ProfileLen)
			}
		}
		return r, nil
	}}
}

// startTwice cold-starts a freshly baked image twice on its own OS; the
// second start must reproduce the first bit for bit.
func startTwice(c *opCtx, w workloads.Workload, img *image.Image, key, group string, identity bool) (opResult, error) {
	o := osim.NewOS(osim.SSD())
	var r opResult
	for i := 0; i < 2; i++ {
		proc, st, output, err := coldStart(c, w, img, o)
		if err != nil {
			return r, err
		}
		out, layers, fails := startOutcome(w, key, group, identity, proc, st, output)
		if i == 0 {
			r = opResult{outcomes: []outcome{out}, layers: layers, failures: fails}
		} else if out.digest != r.outcomes[0].digest {
			r.failures = append(r.failures, key+": repeated cold start differs from the first")
		}
	}
	return r, nil
}

// ---------------------------------------------------------------------------
// start-awfy

// awfyBuilds is the number of build seeds per AWFY program and layout.
const awfyBuilds = 3

type awfyImage struct {
	w      workloads.Workload
	layout string
	build  int
	img    *image.Image
	os     *osim.OS
}

type startAWFY struct {
	images []awfyImage
	seed   uint64
}

// setupStartAWFY bakes every AWFY program in the identity layout and the
// paper's combined cu+heap path layout, per build seed. Each image gets an
// OS of its own, so a cold start drops only its own pages.
func setupStartAWFY(seed uint64, scale int) (instance, error) {
	s := &startAWFY{seed: seed}
	ws := workloads.AWFY()
	for _, w := range ws[:ceilDiv(len(ws), scale)] {
		prog := w.Build()
		for bld := 0; bld < ceilDiv(awfyBuilds, scale); bld++ {
			instr, opt := mix(seed, "awfy-instrumented", bld), mix(seed, "awfy-optimized", bld)
			regular, err := image.Build(prog, image.Options{
				Kind: image.KindRegular, Compiler: graal.DefaultConfig(), BuildSeed: opt,
			})
			if err != nil {
				return nil, fmt.Errorf("baking %s: %w", w.Name, err)
			}
			res, err := image.BuildOptimized(prog, image.PipelineOptions{
				Compiler: graal.DefaultConfig(), Strategy: core.StrategyCombined,
				InstrumentedSeed: instr, OptimizedSeed: opt, Mode: profiler.DumpOnFull, Args: w.Args,
			})
			if err != nil {
				return nil, fmt.Errorf("baking %s/%s: %w", w.Name, core.StrategyCombined, err)
			}
			s.images = append(s.images,
				awfyImage{w: w, layout: eval.LayoutBaseline, build: bld, img: regular, os: osim.NewOS(osim.SSD())},
				awfyImage{w: w, layout: core.StrategyCombined, build: bld, img: res.Optimized, os: osim.NewOS(osim.SSD())})
		}
	}
	return s, nil
}

func (s *startAWFY) pass(p int) []op {
	ops := make([]op, len(s.images))
	for i := range s.images {
		ops[i] = s.start(&s.images[i])
	}
	return shuffled(ops, s.seed, p)
}

func (s *startAWFY) start(a *awfyImage) op {
	return op{kind: a.w.Name + "/" + a.layout, run: func(c *opCtx) (opResult, error) {
		var proc *image.Process
		var st image.Stats
		var output string
		err := c.timed("coldstart", func() (err error) {
			proc, st, output, err = coldStart(c, a.w, a.img, a.os)
			return err
		})
		if err != nil {
			return opResult{}, err
		}
		key := fmt.Sprintf("%s/%s/b%d", a.w.Name, a.layout, a.build)
		out, layers, fails := startOutcome(a.w, key, fmt.Sprintf("%s/b%d", a.w.Name, a.build),
			a.layout == eval.LayoutBaseline, proc, st, output)
		return opResult{outcomes: []outcome{out}, layers: layers, failures: fails}, nil
	}}
}

// ---------------------------------------------------------------------------
// serve-pressure and fleet-budget

// newServeHarness returns the harness of the serve and fleet workloads:
// each call measures two image builds, one after the other. On two
// workers an op's time would depend on whether the host gave the second
// CPU to this process at that moment, which made op times bimodal.
func newServeHarness() *eval.Harness {
	cfg := eval.DefaultConfig()
	cfg.Builds = 2
	cfg.Workers = 1
	return eval.NewHarness(cfg)
}

var (
	serveLayouts   = []string{eval.LayoutBaseline, core.StrategyCombined, core.StrategyC3}
	servePressures = []int{30, 70}
)

// serveSeeds is the number of traffic seeds per layout, pressure and pass.
const serveSeeds = 20

type servePressure struct {
	h     *eval.Harness
	ws    []workloads.Workload
	seed  uint64
	seeds int
}

// setupServePressure bakes every serve image and records the serve
// affinity graphs the c3 layout bakes from, by measuring each workload and
// layout once on a set-up seed the passes never use.
func setupServePressure(seed uint64, scale int) (instance, error) {
	s := &servePressure{h: newServeHarness(), ws: workloads.Serve(), seed: seed, seeds: ceilDiv(serveSeeds, scale)}
	for _, w := range s.ws {
		for _, layout := range serveLayouts {
			if _, err := s.h.MeasureServe(w, layout, serveConfig(servePressures[0], mix(seed, "serve-setup"), false)); err != nil {
				return nil, fmt.Errorf("set-up of %s/%s: %w", w.Name, layout, err)
			}
		}
	}
	return s, nil
}

func serveConfig(pressure int, traffic uint64, record bool) eval.ServeConfig {
	cfg := eval.DefaultServeConfig()
	cfg.Bursts = 16
	cfg.Streams = 2
	cfg.PressurePct = pressure
	cfg.Seed = traffic
	cfg.RecordRequests = record
	return cfg
}

func (s *servePressure) pass(p int) []op {
	var ops []op
	for _, w := range s.ws {
		for _, layout := range serveLayouts {
			for _, pressure := range servePressures {
				for t := 0; t < s.seeds; t++ {
					ops = append(ops, s.scenario(w, layout, pressure, mix(s.seed, "serve-traffic", p, t)))
				}
			}
		}
	}
	return shuffled(ops, s.seed, p)
}

func (s *servePressure) scenario(w workloads.Workload, layout string, pressure int, traffic uint64) op {
	return op{kind: fmt.Sprintf("%s/%s/p%d", w.Name, layout, pressure), run: func(c *opCtx) (opResult, error) {
		cfg := serveConfig(pressure, traffic, c.traced())
		var outs []*eval.ServeOutcome
		err := c.timed("eval.MeasureServe", func() (err error) {
			outs, err = s.h.MeasureServe(w, layout, cfg)
			return err
		})
		if err != nil {
			return opResult{}, err
		}
		r := opResult{layers: layerCounts{}}
		for bld, o := range outs {
			key := fmt.Sprintf("%s/%s/p%d/%x/b%d", w.Name, layout, pressure, traffic, bld)
			requests, major, fails := checkBursts(key, o.Bursts, cfg.Bursts, cfg.BurstSize*cfg.Streams)
			r.failures = append(r.failures, fails...)
			r.failures = append(r.failures, checkRequests(key, o.Requests, r.layers)...)
			r.outcomes = append(r.outcomes, outcome{
				key: key,
				digest: fmt.Sprintf("%v %v %v %d %d %+v", o.StartupNanos, o.WarmMeanNanos, o.WarmP99Nanos,
					o.EvictedPages, o.RefaultPages, o.Bursts),
				group:      fmt.Sprintf("%s/p%d/%x/b%d", w.Name, pressure, traffic, bld),
				identity:   layout == eval.LayoutBaseline,
				simNanos:   o.WarmP99Nanos,
				speedNanos: o.WarmMeanNanos,
				faults:     1000 * float64(major) / float64(requests),
			})
			r.layers["osim.major_faults"] += float64(major)
			for _, bm := range o.Bursts {
				r.layers["osim.minor_faults"] += float64(bm.MinorFaults)
			}
			r.layers["osim.refaults"] += float64(o.RefaultPages)
			r.layers["osim.evicted_pages"] += float64(o.EvictedPages)
		}
		return r, nil
	}}
}

// checkBursts checks that a run served bursts × perBurst requests in its
// bursts and returns the request and major-fault totals.
func checkBursts(key string, bursts []eval.BurstMeasure, want, perBurst int) (requests, major int64, fails []string) {
	if len(bursts) != want {
		fails = append(fails, fmt.Sprintf("%s: %d bursts, want %d", key, len(bursts), want))
	}
	for _, bm := range bursts {
		requests += int64(bm.Requests)
		major += bm.MajorFaults
	}
	if requests != int64(want*perBurst) {
		fails = append(fails, fmt.Sprintf("%s: bursts served %d requests, want %d", key, requests, want*perBurst))
	}
	if requests == 0 {
		requests = 1
	}
	return requests, major, fails
}

// checkRequests checks a per-request trace — latency is queue wait plus
// service, and a request's fault I/O fits in its service time — and adds
// the requests' simulated queue, CPU and I/O time and steps to layers. A
// nil trace (untraced runs record none) checks nothing.
func checkRequests(key string, t *obs.RequestTrace, layers layerCounts) []string {
	if t == nil {
		return nil
	}
	var fails []string
	if t.Dropped > 0 {
		fails = append(fails, fmt.Sprintf("%s: request trace dropped %d records", key, t.Dropped))
	}
	for _, rec := range t.Records {
		if rec.QueueNanos+rec.ServiceNanos != rec.LatencyNanos || float64(rec.IONanos) > rec.ServiceNanos {
			fails = append(fails, fmt.Sprintf("%s: request %d latency %v != queue %v + service %v (io %d)",
				key, rec.ID, rec.LatencyNanos, rec.QueueNanos, rec.ServiceNanos, rec.IONanos))
			break
		}
		layers["vm.steps"] += float64(rec.Steps)
		layers["sim.queue_ns"] += rec.QueueNanos
		layers["sim.io_ns"] += float64(rec.IONanos)
		layers["sim.cpu_ns"] += rec.ServiceNanos - float64(rec.IONanos)
	}
	return fails
}

// fleetTenants share one 192-page cache, each capped at 30% of it: an
// identity and an optimized tenant per serve workload, so the fleet also
// yields an in-fleet layout speedup.
var fleetTenants = []eval.TenantSpec{
	{Workload: "serve-api", Strategy: eval.LayoutBaseline, QuotaPct: 30},
	{Workload: "serve-api", Strategy: core.StrategyC3, QuotaPct: 30},
	{Workload: "serve-cache", Strategy: eval.LayoutBaseline, QuotaPct: 30},
	{Workload: "serve-cache", Strategy: core.StrategyCombined, QuotaPct: 30},
}

// fleetSeeds is the number of traffic seeds per pass.
const fleetSeeds = 40

func fleetConfig(traffic uint64, record bool) eval.FleetConfig {
	d := eval.DefaultServeConfig()
	return eval.FleetConfig{
		Tenants: fleetTenants, Bursts: 12, BurstSize: d.BurstSize,
		PressurePct: 30, CacheBudget: 192, HotPct: d.HotPct, HotRoutes: d.HotRoutes,
		Seed: traffic, RecordRequests: record,
	}
}

type fleetBudget struct {
	h     *eval.Harness
	seed  uint64
	seeds int
}

// setupFleetBudget bakes every tenant's images and serve affinity graphs by
// measuring the fleet once on a set-up seed the passes never use.
func setupFleetBudget(seed uint64, scale int) (instance, error) {
	f := &fleetBudget{h: newServeHarness(), seed: seed, seeds: ceilDiv(fleetSeeds, scale)}
	if _, err := f.h.MeasureFleet(fleetConfig(mix(seed, "fleet-setup"), false)); err != nil {
		return nil, fmt.Errorf("set-up of the fleet: %w", err)
	}
	return f, nil
}

func (f *fleetBudget) pass(p int) []op {
	ops := make([]op, f.seeds)
	for t := range ops {
		ops[t] = f.scenario(mix(f.seed, "fleet-traffic", p, t))
	}
	return ops
}

func (f *fleetBudget) scenario(traffic uint64) op {
	return op{kind: "fleet", run: func(c *opCtx) (opResult, error) {
		cfg := fleetConfig(traffic, c.traced())
		var outs []*eval.FleetOutcome
		err := c.timed("eval.MeasureFleet", func() (err error) {
			outs, err = f.h.MeasureFleet(cfg)
			return err
		})
		if err != nil {
			return opResult{}, err
		}
		r := opResult{layers: layerCounts{}}
		for bld, fo := range outs {
			fkey := fmt.Sprintf("fleet/%x/b%d", traffic, bld)
			r.failures = append(r.failures, checkFleet(fkey, fo)...)
			r.failures = append(r.failures, checkRequests(fkey, fo.Requests, r.layers)...)
			for _, tn := range fo.Tenants {
				key := fmt.Sprintf("%s/%s/%x/b%d", tn.Spec.Workload, tn.Spec.Strategy, traffic, bld)
				requests, _, fails := checkBursts(key, tn.Bursts, cfg.Bursts, cfg.BurstSize)
				r.failures = append(r.failures, fails...)
				r.outcomes = append(r.outcomes, outcome{
					key: key,
					digest: fmt.Sprintf("%v %v %v %d %d %d %+v %v %+v", tn.StartupNanos, tn.WarmMeanNanos, tn.WarmP99Nanos,
						tn.EvictedPages, tn.RefaultPages, tn.ResidentPages, tn.Counters, tn.Resident, tn.Bursts),
					group:      fmt.Sprintf("%s/%x/b%d", tn.Spec.Workload, traffic, bld),
					identity:   tn.Spec.Strategy == eval.LayoutBaseline,
					simNanos:   tn.WarmP99Nanos,
					speedNanos: tn.WarmMeanNanos,
					faults:     1000 * float64(tn.Counters.MajorFaults) / float64(requests),
				})
			}
			r.layers["osim.major_faults"] += float64(fo.TotalMajorFaults)
			r.layers["osim.minor_faults"] += float64(fo.TotalFaults - fo.TotalMajorFaults)
			r.layers["osim.refaults"] += float64(fo.TotalRefaults)
			r.layers["osim.evicted_pages"] += float64(fo.TotalEvictions)
			for i, row := range fo.EvictedBy {
				for j, n := range row {
					if i > 0 && j > 0 && i != j {
						r.layers["osim.cross_tenant_evictions"] += float64(n)
					}
				}
			}
		}
		return r, nil
	}}
}

// checkFleet checks the fleet partitions: the tenants' fault counters sum
// to the OS totals, and the interference matrix to the total evictions.
func checkFleet(key string, fo *eval.FleetOutcome) []string {
	var sum osim.TenantFaults
	for _, tn := range fo.Tenants {
		sum.Faults += tn.Counters.Faults
		sum.MajorFaults += tn.Counters.MajorFaults
		sum.Refaults += tn.Counters.Refaults
		sum.IONanos += tn.Counters.IONanos
	}
	var fails []string
	if sum.Faults != fo.TotalFaults || sum.MajorFaults != fo.TotalMajorFaults ||
		sum.Refaults != fo.TotalRefaults || sum.IONanos != fo.TotalIONanos {
		fails = append(fails, fmt.Sprintf("%s: tenant counters %+v do not sum to the totals %d/%d/%d/%d",
			key, sum, fo.TotalFaults, fo.TotalMajorFaults, fo.TotalRefaults, fo.TotalIONanos))
	}
	var evicted int64
	for _, row := range fo.EvictedBy {
		for _, n := range row {
			evicted += n
		}
	}
	if evicted != fo.TotalEvictions {
		fails = append(fails, fmt.Sprintf("%s: interference matrix sums to %d, total evictions %d", key, evicted, fo.TotalEvictions))
	}
	return fails
}
