package eval

// Serve-mode measurement: startup followed by request bursts against a
// long-lived process, with page-cache pressure applied between bursts.
// Where the cold-start protocol (harness.go) asks "how many faults until
// the first response", the serve protocol asks "what does a layout cost
// per warm burst once the kernel has started evicting its pages" — the
// steady-state counterpart of Sec. 7's startup figures. Latency here is
// simulated request time (CPU cycles plus fault I/O), so results are
// bit-deterministic like everything else in the harness.

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"time"

	"nimage/internal/core"
	"nimage/internal/heap"
	"nimage/internal/image"
	"nimage/internal/ir"
	"nimage/internal/murmur"
	"nimage/internal/obs"
	"nimage/internal/obs/affinity"
	"nimage/internal/obs/attrib"
	"nimage/internal/osim"
	"nimage/internal/vm"
	"nimage/internal/workloads"
)

// ServeConfig tunes one serve-mode scenario.
type ServeConfig struct {
	// Bursts is the number of request bursts after startup; burst 0 is the
	// cold burst, bursts 1.. are the warm bursts the figures aggregate.
	Bursts int `json:"bursts"`
	// BurstSize is the number of requests per burst.
	BurstSize int `json:"burst_size"`
	// PressurePct reclaims this percentage of the resident pages between
	// bursts (inter-burst memory pressure from other tenants). 0 disables.
	PressurePct int `json:"pressure_pct"`
	// CacheBudget bounds the resident pages of the whole OS (0: unlimited);
	// the budget is enforced on every fault by LRU eviction.
	CacheBudget int `json:"cache_budget,omitempty"`
	// HotPct percent of requests go to the HotRoutes first routes; the rest
	// spread uniformly over all routes. Models working-set skew.
	HotPct    int `json:"hot_pct"`
	HotRoutes int `json:"hot_routes"`
	// Seed drives the deterministic request stream.
	Seed uint64 `json:"seed"`
	// Streams is the number of concurrent closed-loop request streams
	// multiplexed against the single long-lived mapping, all sharing one
	// osim page-cache budget. 1 (the default) reproduces the serial
	// protocol bit for bit. For N > 1, each burst is the union of every
	// stream's BurstSize requests served in a deterministic seeded
	// interleave: the server is a single simulated CPU, so a request
	// waits in queue while requests of other streams are served — the
	// queue-wait/service split the request traces record. Concurrency
	// is modeled, not goroutine-parallel, so results stay bit-identical
	// across -workers and repeated runs (the scheduler's determinism
	// contract).
	Streams int `json:"streams,omitempty"`
	// RecordRequests attaches the bounded per-request trace recorder
	// (obs.RequestTrace) to the run; the trace rides on the outcome and
	// feeds the Chrome-trace export.
	RecordRequests bool `json:"record_requests,omitempty"`
}

// DefaultServeConfig returns the serve-mode defaults: five bursts of 24
// requests, half the resident set reclaimed between bursts, 80% of the
// traffic on 4 hot routes.
func DefaultServeConfig() ServeConfig {
	return ServeConfig{
		Bursts:      5,
		BurstSize:   24,
		PressurePct: 50,
		HotPct:      80,
		HotRoutes:   4,
		Seed:        0x53127e,
	}
}

// withDefaults fills unset knobs so a zero-valued config is usable and the
// memoization key is canonical.
func (c ServeConfig) withDefaults() ServeConfig {
	d := DefaultServeConfig()
	if c.Bursts <= 0 {
		c.Bursts = d.Bursts
	}
	if c.BurstSize <= 0 {
		c.BurstSize = d.BurstSize
	}
	if c.HotRoutes <= 0 {
		c.HotRoutes = d.HotRoutes
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Streams <= 0 {
		c.Streams = 1
	}
	return c
}

// key canonicalizes the config for memoization.
func (c ServeConfig) key() string {
	return fmt.Sprintf("%d/%d/%d/%d/%d/%d/%d/%d/%t",
		c.Bursts, c.BurstSize, c.PressurePct, c.CacheBudget,
		c.HotPct, c.HotRoutes, c.Seed, c.Streams, c.RecordRequests)
}

// BurstMeasure is the telemetry of one request burst. The eviction count
// includes the inter-burst pressure that preceded the burst — the cost a
// burst inherits — while faults, re-faults and I/O are strictly the
// burst's own.
type BurstMeasure struct {
	Burst    int `json:"burst"`
	Requests int `json:"requests"`
	// Request latency quantiles (simulated nanoseconds, exact nearest-rank
	// over the burst's samples).
	P50Nanos  float64 `json:"p50_nanos"`
	P90Nanos  float64 `json:"p90_nanos"`
	P99Nanos  float64 `json:"p99_nanos"`
	MeanNanos float64 `json:"mean_nanos"`
	// Fault traffic of the burst.
	MajorFaults int64 `json:"major_faults"`
	MinorFaults int64 `json:"minor_faults"`
	Refaults    int64 `json:"refaults"`
	IONanos     int64 `json:"io_nanos"`
	// EvictedPages counts evictions since the previous burst ended
	// (pressure before the burst plus budget evictions during it).
	EvictedPages int64 `json:"evicted_pages"`
	// Section residency at the end of the burst.
	ResidentText int `json:"resident_text"`
	ResidentHeap int `json:"resident_heap"`
	// Queue-wait aggregates over the burst's requests: time spent waiting
	// for the single simulated CPU while other streams were served. Zero
	// (and omitted) for single-stream runs, whose latency is pure service
	// time.
	MeanQueueNanos float64 `json:"mean_queue_nanos,omitempty"`
	MaxQueueNanos  float64 `json:"max_queue_nanos,omitempty"`
}

// ServeOutcome is one build's serve-mode run: startup, then the bursts.
type ServeOutcome struct {
	Workload string      `json:"workload"`
	Strategy string      `json:"strategy"`
	Config   ServeConfig `json:"config"`
	// StartupNanos is the time to the first response (startup phase).
	StartupNanos float64        `json:"startup_nanos"`
	Bursts       []BurstMeasure `json:"bursts"`
	// Warm aggregates over the warm bursts (1..): mean and exact p99 of all
	// warm request latencies.
	WarmMeanNanos float64 `json:"warm_mean_nanos"`
	WarmP99Nanos  float64 `json:"warm_p99_nanos"`
	// Run totals: pages evicted and re-faulted over the whole run.
	EvictedPages int64 `json:"evicted_pages"`
	RefaultPages int64 `json:"refault_pages"`
	// Attrib is the per-symbol fault/eviction attribution; Report the obs
	// snapshot (serve.latency_nanos histogram, serve.burst timeline). Both
	// nil unless the harness observes.
	Attrib *attrib.Table `json:"attrib,omitempty"`
	Report *obs.Snapshot `json:"report,omitempty"`
	// Affinity is the temporal co-access graph recorded over the whole
	// serve run (startup plus every burst), and Scorecard its static score
	// against the run's own layout under the config's pressure. Both nil
	// unless the harness observes or tracks affinity.
	Affinity  *affinity.Graph     `json:"affinity,omitempty"`
	Scorecard *affinity.Scorecard `json:"scorecard,omitempty"`
	// Requests is the bounded per-request trace (queue/service split,
	// fault traffic, burst and reclaim marks); nil unless
	// ServeConfig.RecordRequests asked for it.
	Requests *obs.RequestTrace `json:"requests,omitempty"`
}

// routeFor derives request k's route deterministically from the seed:
// HotPct percent of requests hit the HotRoutes first routes, the rest
// spread over all of them.
func routeFor(k int, cfg ServeConfig, routes int) int {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(k))
	h := murmur.Sum64Seed(buf[:], cfg.Seed)
	hot := cfg.HotRoutes
	if hot <= 0 || hot > routes {
		hot = routes
	}
	if int(h%100) < cfg.HotPct {
		return int((h / 100) % uint64(hot))
	}
	return int((h / 100) % uint64(routes))
}

// routeForStream derives request k of stream s. Stream 0 reuses the
// routeFor sequence exactly — a Streams=1 run is bit-identical to the
// pre-stream serial protocol — while higher streams fold their id into
// the seed so concurrent streams pull distinct (but equally skewed)
// request sequences.
func routeForStream(stream, k int, cfg ServeConfig, routes int) int {
	if stream > 0 {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(stream))
		cfg.Seed = murmur.Sum64Seed(buf[:], cfg.Seed)
	}
	return routeFor(k, cfg, routes)
}

// pickStream selects which stream's request the server takes next: a
// seeded deterministic interleave over the streams that still have
// requests left in the burst. With one stream this is the identity
// schedule; with several it shuffles service order reproducibly, so the
// contention pattern is stable across -workers, runs and platforms.
func pickStream(cfg ServeConfig, burst, step int, remaining []int) int {
	if len(remaining) == 1 {
		return 0
	}
	candidates := 0
	for _, r := range remaining {
		if r > 0 {
			candidates++
		}
	}
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(burst))
	binary.LittleEndian.PutUint64(buf[8:], uint64(step))
	pick := int(murmur.Sum64Seed(buf[:], cfg.Seed) % uint64(candidates))
	for s, r := range remaining {
		if r > 0 {
			if pick == 0 {
				return s
			}
			pick--
		}
	}
	panic("eval: pickStream with no remaining requests")
}

// MeasureServe runs the serve scenario for one workload and strategy
// (LayoutBaseline or "" for unmodified images) over every build seed and
// returns one outcome per build. Results are memoized per (workload,
// strategy, config); images are additionally memoized per (workload,
// strategy, build) so pressure sweeps rebuild nothing.
func (h *Harness) MeasureServe(w workloads.Workload, strategy string, scfg ServeConfig) ([]*ServeOutcome, error) {
	if w.Serve == nil {
		return nil, fmt.Errorf("eval: workload %s has no serve spec", w.Name)
	}
	scfg = scfg.withDefaults()
	if strategy == "" {
		strategy = LayoutBaseline
	}
	key := "serve\x00" + w.Name + "\x00" + strategy + "\x00" + scfg.key()
	return memo(h, h.serveCache, key, func() ([]*ServeOutcome, error) {
		// The builds fan out across the worker pool; the outcome slice is
		// indexed by build, so results are bit-identical for every worker
		// count (the determinism contract of scheduler.go).
		out := make([]*ServeOutcome, h.Cfg.Builds)
		err := h.forEach(h.Cfg.Builds, func(bld int) error {
			h.sched.buildTasks.Add(1)
			img, err := h.serveImage(w, strategy, bld)
			if err != nil {
				return err
			}
			out[bld], err = h.runServe(img, w, strategy, scfg, false)
			return err
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	})
}

// serveImage builds (once per workload/strategy/build — shared by every
// pressure level) the image a serve run executes.
func (h *Harness) serveImage(w workloads.Workload, strategy string, bld int) (*image.Image, error) {
	key := fmt.Sprintf("simg\x00%s\x00%s\x00%d", w.Name, strategy, bld)
	return memo(h, h.serveImgs, key, func() (*image.Image, error) {
		var adjust func(*image.PipelineOptions) error
		if core.IsGraphStrategy(strategy) {
			// Graph strategies optimize burst residency, so they bake from
			// the baseline *serve* recording rather than letting the
			// pipeline record a cold start.
			adjust = func(popts *image.PipelineOptions) error {
				g, err := h.serveAffinityGraph(w, bld)
				if err != nil {
					return err
				}
				popts.AffinityGraph = g
				return nil
			}
		}
		res, _, err := h.bake(w, strategy, bld, false, adjust)
		if err != nil {
			return nil, err
		}
		return res.Optimized, nil
	})
}

// serveAffinityGraph records — once per workload/build, shared by every
// pressure level and both graph strategies — the affinity graph the graph
// strategies bake from: the baseline image of the same build runs the
// *default* serve scenario with affinity tracking forced on. Recording at
// the default config keeps the graph independent of the measurement's
// pressure sweep, preserving the serve-image memoization contract
// (sweeping pressure rebuilds nothing).
func (h *Harness) serveAffinityGraph(w workloads.Workload, bld int) (*affinity.Graph, error) {
	key := fmt.Sprintf("sgraph\x00%s\x00%d", w.Name, bld)
	return memo(h, h.serveGraphs, key, func() (*affinity.Graph, error) {
		img, err := h.serveImage(w, LayoutBaseline, bld)
		if err != nil {
			return nil, err
		}
		o, err := h.runServe(img, w, LayoutBaseline, DefaultServeConfig(), true)
		if err != nil {
			return nil, fmt.Errorf("eval: serve affinity recording of %s: %w", w.Name, err)
		}
		if o.Affinity == nil {
			return nil, fmt.Errorf("eval: serve affinity recording of %s produced no graph", w.Name)
		}
		return o.Affinity, nil
	})
}

// runServe executes one serve scenario — a one-tenant run of the serve
// engine — and projects it to the serve outcome, scoring the recorded
// affinity graph (if any) against the run's own layout. trackAffinity
// forces the co-access recorder on regardless of the harness config — the
// serve affinity recording needs a graph even on detached harnesses.
func (h *Harness) runServe(img *image.Image, w workloads.Workload, strategy string, scfg ServeConfig, trackAffinity bool) (*ServeOutcome, error) {
	scfg = scfg.withDefaults() // direct callers may pass a sparse config
	run, err := h.runEngine([]engineTenant{{
		spec: TenantSpec{Workload: w.Name, Strategy: strategy}, img: img, w: w,
	}}, scfg, false, trackAffinity)
	if err != nil {
		return nil, err
	}
	tn := run.fo.Tenants[0]
	out := &ServeOutcome{
		Workload:      w.Name,
		Strategy:      strategy,
		Config:        scfg,
		StartupNanos:  tn.StartupNanos,
		Bursts:        tn.Bursts,
		WarmMeanNanos: tn.WarmMeanNanos,
		WarmP99Nanos:  tn.WarmP99Nanos,
		EvictedPages:  tn.EvictedPages,
		RefaultPages:  tn.RefaultPages,
		Attrib:        run.attrib,
		Report:        run.fo.Report,
		Affinity:      run.affinity,
		Requests:      run.fo.Requests,
	}
	if run.affinity != nil {
		out.Scorecard, err = affinity.Score(run.affinity,
			affinity.NewPlacement(img.AttributionIndex().Symbols()),
			strategy, scfg.PressurePct, scfg.CacheBudget)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// engineTenant is one tenant of an engine run: a serve image with its
// workload and its spec (layout label and residency quota).
type engineTenant struct {
	spec TenantSpec
	img  *image.Image
	w    workloads.Workload
}

// engineRun is one run of the serve engine: the fleet-shaped outcome
// (Config and the solo comparison are the caller's) plus, for serve runs,
// the tenant's attribution table and affinity graph when the OS records
// them.
type engineRun struct {
	fo       *FleetOutcome
	attrib   *attrib.Table
	affinity *affinity.Graph
}

// faultCounts is a snapshot of a mapping's fault counters, for deltas.
type faultCounts struct {
	faults, major, refaults int64
	io                      time.Duration
}

func countsOf(m *osim.Mapping) faultCounts {
	return faultCounts{m.Faults, m.MajorFaults, m.Refaults, m.IOTime}
}

func (c faultCounts) minus(d faultCounts) faultCounts {
	return faultCounts{c.faults - d.faults, c.major - d.major, c.refaults - d.refaults, c.io - d.io}
}

// runEngine is the one serve engine: T tenants, each serving scfg.Streams
// closed-loop request streams, on one simulated OS under one page-cache
// budget. Startups run sequentially in tenant order (later startups
// already press on earlier tenants' pages); then every burst is the union
// of all streams' BurstSize requests, drained by a single simulated CPU in
// the seeded pickStream interleave over the T×S slots (slot tenant*S +
// stream, so one tenant is the serve schedule and one stream per tenant
// the fleet schedule). One request is one RunMethod call on the tenant's
// dispatch entry (StopOnRespond stops the machine at the request's respond
// intrinsic); its latency is queue wait plus the simulated CPU and fault
// I/O of its service.
//
// fleet selects the telemetry naming: serve runs (one tenant) record
// serve.latency_nanos, the serve.burst timeline and one histogram per
// stream, and return the tenant's attribution and affinity results;
// fleet runs record fleet.tenantNN.* per tenant. trackAffinity forces the
// co-access recorder on.
func (h *Harness) runEngine(ts []engineTenant, scfg ServeConfig, fleet, trackAffinity bool) (*engineRun, error) {
	label := "serve"
	if fleet {
		label = "fleet"
	}
	o := h.newOS()
	o.CacheBudget = scfg.CacheBudget
	if trackAffinity {
		o.TrackAffinity = true
	}
	if h.Cfg.Observe {
		o.Obs = obs.NewRegistry()
	}
	type tenant struct {
		engineTenant
		out  *TenantOutcome
		proc *image.Process
		meth *ir.Method
		file *osim.File
		// Every request latency in burst order (each burst's span sorted),
		// and the length of the cold burst's span.
		lats []float64
		cold int
		// Per-burst state (start indexes the burst's span of lats).
		start              int
		evict0             int64
		counts0            faultCounts
		queueSum, queueMax float64
	}
	tenants := make([]tenant, len(ts))
	// Close is idempotent: the deferred call releases the processes on
	// error paths, the explicit one below before the final snapshot.
	closeAll := func() {
		for _, tn := range tenants {
			if tn.proc != nil {
				tn.proc.Close()
			}
		}
	}
	defer closeAll()
	for i, t := range ts {
		tn := &tenants[i]
		tn.engineTenant = t
		w := t.w
		cls := t.img.Program.Class(w.Serve.DispatchClass)
		if cls == nil {
			return nil, fmt.Errorf("eval: %s %s: dispatch class %s missing", label, w.Name, w.Serve.DispatchClass)
		}
		tn.meth = cls.LookupMethod(w.Serve.DispatchMethod)
		if tn.meth == nil || !tn.meth.Static || tn.meth.NParams != 1 {
			return nil, fmt.Errorf("eval: %s %s: dispatch method %s.%s must be static with one parameter",
				label, w.Name, w.Serve.DispatchClass, w.Serve.DispatchMethod)
		}
		// Ownership must be set at file-registration time (NewProcess
		// touches pages while constructing the mapping), so the tenant id
		// is installed as the OS default around process construction.
		tn.out = &TenantOutcome{Spec: t.spec, Tenant: i}
		if scfg.CacheBudget > 0 {
			// A quota is a share of the budget; unlimited caches have none.
			tn.out.QuotaPages = scfg.CacheBudget * t.spec.QuotaPct / 100
		}
		o.DefaultTenant = i
		if tn.out.QuotaPages > 0 {
			o.SetTenantQuota(i, tn.out.QuotaPages)
		}
		proc, err := t.img.NewProcess(o, vm.Hooks{})
		if err != nil {
			return nil, err
		}
		tn.proc = proc
		if tn.file, err = t.img.File(o); err != nil {
			return nil, err
		}
		o.DefaultTenant = -1
		proc.Machine.StopOnRespond = true
		if err := proc.Run(w.Args...); err != nil {
			return nil, fmt.Errorf("eval: %s startup of %s: %w", label, w.Name, err)
		}
		if !proc.Machine.Responded {
			return nil, fmt.Errorf("eval: %s %s never responded during startup", label, w.Name)
		}
		tn.out.StartupNanos = float64(proc.Stats().Judged.Nanoseconds())
	}

	streams := scfg.Streams
	slots := len(tenants) * streams
	// slotHists is indexed by slot: per stream in serve runs (only when
	// there are several), per tenant in fleet runs (one stream each).
	var allHist *obs.Histogram
	var slotHists []*obs.Histogram
	var burstTls []*obs.Timeline
	if o.Obs.Enabled() {
		cols := []string{"requests", "p50_nanos", "p99_nanos", "major", "minor", "refaults", "evicted"}
		if fleet {
			for i := range tenants {
				name := fmt.Sprintf("fleet.tenant%02d", i)
				slotHists = append(slotHists, o.Obs.Histogram(name+".latency_nanos", obs.LatencyBuckets()))
				burstTls = append(burstTls, o.Obs.Timeline(name+".burst", append(cols, "resident")...))
			}
		} else {
			allHist = o.Obs.Histogram("serve.latency_nanos", obs.LatencyBuckets())
			burstTls = append(burstTls, o.Obs.Timeline("serve.burst", append(cols, "resident_text", "resident_heap")...))
			for s := 0; streams > 1 && s < streams; s++ {
				slotHists = append(slotHists, o.Obs.Histogram(
					fmt.Sprintf("serve.stream%02d.latency_nanos", s), obs.LatencyBuckets()))
			}
		}
	}
	var trace *obs.RequestTrace
	if scfg.RecordRequests {
		trace = obs.NewRequestTrace(slots, scfg.Bursts*scfg.BurstSize*slots)
		var names, layouts []string
		for _, t := range ts {
			names, layouts = append(names, t.spec.Workload), append(layouts, t.spec.Strategy)
		}
		trace.Workload = strings.Join(names, "+")
		trace.Layout = strings.Join(layouts, "+")
	}
	// The server clock: one simulated CPU serving every tenant back to
	// back, so elapsed server time is every machine's CPU nanos plus all
	// the fault I/O any of them waited on.
	clock := func() float64 {
		t := 0.0
		for _, tn := range tenants {
			t += tn.proc.Machine.SimTimeNanos() + float64(tn.proc.Mapping.IOTime.Nanoseconds())
		}
		return t
	}

	reqBySlot := make([]int, slots) // per-slot request ordinal, for routes
	arrival := make([]float64, slots)
	remaining := make([]int, slots)
	reqID := 0
	for b := 0; b < scfg.Bursts; b++ {
		// The burst inherits the evictions of the pressure before it; the
		// reclaim itself takes no faults.
		for i := range tenants {
			tn := &tenants[i]
			tn.start, tn.evict0, tn.counts0 = len(tn.lats), tn.file.EvictedPages(), countsOf(tn.proc.Mapping)
			tn.queueSum, tn.queueMax = 0, 0
		}
		if b > 0 && scfg.PressurePct > 0 {
			o.ReclaimFraction(scfg.PressurePct)
			trace.Mark(obs.MarkReclaim, b, clock())
		}
		trace.Mark(obs.MarkBurst, b, clock())
		// Closed-loop clients: every stream submits its first request at
		// the burst start and its next one the instant the previous
		// response returns. The single-CPU server drains the burst in the
		// seeded interleave order; the gap between a request's arrival and
		// its service start is queue wait.
		burstStart := clock()
		for s := range remaining {
			arrival[s] = burstStart
			remaining[s] = scfg.BurstSize
		}
		for t := 0; t < slots*scfg.BurstSize; t++ {
			slot := pickStream(scfg, b, t, remaining)
			remaining[slot]--
			tn := &tenants[slot/streams]
			route := routeForStream(slot, reqBySlot[slot], scfg, tn.w.Serve.Routes)
			reqBySlot[slot]++
			serviceStart := clock()
			c0 := countsOf(tn.proc.Mapping)
			steps0 := tn.proc.Machine.Steps
			if _, err := tn.proc.Machine.RunMethod(tn.meth, heap.IntVal(int64(route))); err != nil {
				return nil, fmt.Errorf("eval: %s %s burst %d request %d: %w", label, tn.w.Name, b, t, err)
			}
			end := clock()
			service := end - serviceStart
			queue := serviceStart - arrival[slot]
			lat := queue + service
			arrival[slot] = end
			tn.queueSum += queue
			tn.queueMax = max(tn.queueMax, queue)
			tn.lats = append(tn.lats, lat)
			allHist.Observe(lat)
			if slotHists != nil {
				slotHists[slot].Observe(lat)
			}
			d := countsOf(tn.proc.Mapping).minus(c0)
			trace.Record(obs.RequestRecord{
				ID: reqID, Stream: slot, Burst: b, Route: route,
				StartNanos: serviceStart - queue, QueueNanos: queue,
				ServiceNanos: service, LatencyNanos: lat,
				Steps:  tn.proc.Machine.Steps - steps0,
				Faults: d.faults, MajorFaults: d.major, Refaults: d.refaults,
				IONanos: d.io.Nanoseconds(),
			})
			reqID++
		}
		for i := range tenants {
			tn := &tenants[i]
			lats := tn.lats[tn.start:]
			sort.Float64s(lats)
			d := countsOf(tn.proc.Mapping).minus(tn.counts0)
			bm := BurstMeasure{
				Burst:         b,
				Requests:      len(lats),
				P50Nanos:      obs.QuantileExact(lats, 0.50),
				P90Nanos:      obs.QuantileExact(lats, 0.90),
				P99Nanos:      obs.QuantileExact(lats, 0.99),
				MeanNanos:     Mean(lats),
				MajorFaults:   d.major,
				MinorFaults:   d.faults - d.major,
				Refaults:      d.refaults,
				IONanos:       d.io.Nanoseconds(),
				EvictedPages:  tn.file.EvictedPages() - tn.evict0,
				ResidentText:  tn.file.ResidentInSection(image.SectionText),
				ResidentHeap:  tn.file.ResidentInSection(image.SectionHeap),
				MaxQueueNanos: tn.queueMax,
			}
			if len(lats) > 0 {
				bm.MeanQueueNanos = tn.queueSum / float64(len(lats))
			}
			resident := int64(o.TenantResidentPages(i))
			tn.out.Bursts = append(tn.out.Bursts, bm)
			tn.out.Resident = append(tn.out.Resident, resident)
			if b == 0 {
				tn.cold = len(tn.lats)
			}
			if burstTls != nil {
				vals := []int64{int64(bm.Requests), int64(bm.P50Nanos), int64(bm.P99Nanos),
					bm.MajorFaults, bm.MinorFaults, bm.Refaults, bm.EvictedPages}
				if fleet {
					vals = append(vals, resident)
				} else {
					vals = append(vals, int64(bm.ResidentText), int64(bm.ResidentHeap))
				}
				burstTls[i].Record(fmt.Sprintf("burst-%d", b), vals...)
			}
		}
	}

	fo := &FleetOutcome{}
	for i := range tenants {
		tn := &tenants[i]
		warm := tn.lats[tn.cold:]
		if len(warm) == 0 {
			// Single-burst configs: the cold burst is all there is.
			warm = tn.lats
		}
		sort.Float64s(warm)
		to := tn.out
		to.WarmMeanNanos = Mean(warm)
		to.WarmP99Nanos = obs.QuantileExact(warm, 0.99)
		to.EvictedPages = o.TenantEvictions(i)
		to.RefaultPages = o.TenantRefaults(i)
		to.ResidentPages = int64(o.TenantResidentPages(i))
		// Each tenant owns exactly one mapping: its counters are the
		// tenant's charge-side partition.
		m := tn.proc.Mapping
		to.Counters = osim.TenantFaults{
			Tenant: i, Faults: m.Faults, MajorFaults: m.MajorFaults,
			Refaults: m.Refaults, IONanos: m.IOTime.Nanoseconds(),
		}
		fo.Tenants = append(fo.Tenants, to)
		fo.TotalFaults += m.Faults
		fo.TotalMajorFaults += m.MajorFaults
		fo.TotalRefaults += m.Refaults
		fo.TotalIONanos += m.IOTime.Nanoseconds()
	}
	fo.EvictedBy = normalizeMatrix(o.InterferenceMatrix(), len(tenants))
	for _, row := range fo.EvictedBy {
		for _, v := range row {
			fo.TotalEvictions += v
		}
	}
	fo.ResidentPages = o.ResidentPages()
	fo.Requests = trace
	run := &engineRun{fo: fo}
	if !fleet {
		tn := tenants[0]
		if tab := tn.proc.AttributionTable(); tab != nil {
			tab.Layout = tn.spec.Strategy
			run.attrib = tab
		}
		if g := tn.proc.AffinityGraph(); g != nil {
			g.Layout = tn.spec.Strategy
			run.affinity = g
		}
	}
	closeAll()
	if o.Obs != nil {
		fo.Report = o.Obs.Snapshot()
	}
	return run, nil
}

// ServeStrategies are the layouts the serve figures compare, from the
// strategy registry: the text-side orderer, the heap-side orderer, their
// combination, and the two graph-based serve layouts.
func ServeStrategies() []string {
	return core.ServeStrategyNames()
}

// ServeLatencyTable compares warm-burst mean latency (baseline / strategy,
// >1 means the layout is faster) per serve workload under one pressure
// level. A nil workload set means every serve workload; nil strategies
// mean ServeStrategies().
func (h *Harness) ServeLatencyTable(ws []workloads.Workload, scfg ServeConfig, strategies []string) (*Table, error) {
	return h.serveTable(
		fmt.Sprintf("Serve warm-burst latency (pressure %d%%)", scfg.withDefaults().PressurePct),
		"warm-burst latency speedup", ws, scfg, strategies,
		func(o *ServeOutcome) float64 { return o.WarmMeanNanos })
}

// ServeRefaultTable compares total re-faulted pages (baseline / strategy,
// >1 means the layout re-faults less) per serve workload under one
// pressure level.
func (h *Harness) ServeRefaultTable(ws []workloads.Workload, scfg ServeConfig, strategies []string) (*Table, error) {
	return h.serveTable(
		fmt.Sprintf("Serve re-fault volume (pressure %d%%)", scfg.withDefaults().PressurePct),
		"re-fault reduction", ws, scfg, strategies,
		func(o *ServeOutcome) float64 { return float64(o.RefaultPages) })
}

func (h *Harness) serveTable(title, metric string, ws []workloads.Workload, scfg ServeConfig, strategies []string, val func(*ServeOutcome) float64) (*Table, error) {
	if ws == nil {
		ws = workloads.Serve()
	}
	if strategies == nil {
		strategies = ServeStrategies()
	}
	t := &Table{Title: title, Metric: metric, Strategies: strategies}
	for _, w := range ws {
		base, err := h.MeasureServe(w, LayoutBaseline, scfg)
		if err != nil {
			return nil, err
		}
		var bs []float64
		for _, o := range base {
			bs = append(bs, val(o))
		}
		for _, s := range strategies {
			opt, err := h.MeasureServe(w, s, scfg)
			if err != nil {
				return nil, err
			}
			var os []float64
			for _, o := range opt {
				os = append(os, val(o))
			}
			t.Cells = append(t.Cells, FactorCell(w.Name, s, bs, os))
		}
	}
	t.AddGeoMean()
	t.SortCells()
	return t, nil
}
