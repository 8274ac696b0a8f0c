package eval

// Fleet measurement: N tenants — serve workload × layout strategy pairs —
// served concurrently from ONE simulated OS under a shared page-cache
// budget. Where the serve protocol (serve.go) measures one long-lived
// service under synthetic inter-burst pressure, the fleet protocol makes
// the pressure endogenous: every tenant's faults compete for the same
// budget, so one tenant's working set evicts another's pages, and the
// osim interference matrix says exactly who evicted whom. A fleet run is
// a run of the one serve engine (runEngine) with one stream per tenant,
// so fleet outcomes are bit-deterministic across -workers and repeats —
// and a single-tenant fleet without quota reproduces MeasureServe exactly
// (the back-compat contract fleet_test.go enforces).

import (
	"fmt"
	"sort"
	"strings"

	"nimage/internal/obs"
	"nimage/internal/osim"
	"nimage/internal/workloads"
)

// TenantSpec names one fleet tenant: a serve workload × layout strategy
// pair with an optional residency quota.
type TenantSpec struct {
	Workload string `json:"workload"`
	Strategy string `json:"strategy"`
	// QuotaPct caps the tenant's resident pages at this percentage of the
	// shared CacheBudget (0: no quota). Quotas need a budget: with an
	// unlimited cache a percentage of it is meaningless, so the quota is
	// only applied when CacheBudget > 0.
	QuotaPct int `json:"quota_pct,omitempty"`
}

// FleetConfig tunes one multi-tenant serve scenario. The scenario knobs
// (bursts, pressure, budget, policy, traffic skew, seed) are shared by
// every tenant; the tenant list is what varies.
type FleetConfig struct {
	// Tenants are the fleet members. Pairs must be distinct: images are
	// memoized per (workload, strategy, build), so duplicate pairs would
	// share one page-cache file and their ownership could not be told
	// apart in the interference matrix.
	Tenants []TenantSpec `json:"tenants"`
	// Bursts, BurstSize, PressurePct, CacheBudget, Policy, HotPct,
	// HotRoutes, Seed mean exactly what they mean in ServeConfig; the
	// fleet run drives every tenant's request stream from the one Seed.
	Bursts      int                 `json:"bursts"`
	BurstSize   int                 `json:"burst_size"`
	PressurePct int                 `json:"pressure_pct"`
	CacheBudget int                 `json:"cache_budget,omitempty"`
	Policy      osim.EvictionPolicy `json:"policy,omitempty"`
	HotPct      int                 `json:"hot_pct"`
	HotRoutes   int                 `json:"hot_routes"`
	Seed        uint64              `json:"seed"`
	// RecordRequests attaches the bounded per-request trace recorder;
	// streams are tenant indices, feeding the fleet Chrome-trace export.
	RecordRequests bool `json:"record_requests,omitempty"`
}

// withDefaults fills unset knobs from the serve defaults and
// canonicalizes the tenant order, so the memoization key — and therefore
// the measured interleave — is independent of how the caller happened to
// order the tenant slice.
func (c FleetConfig) withDefaults() FleetConfig {
	d := c.serveConfig().withDefaults()
	c.Bursts, c.BurstSize, c.HotRoutes, c.Seed = d.Bursts, d.BurstSize, d.HotRoutes, d.Seed
	ts := make([]TenantSpec, len(c.Tenants))
	copy(ts, c.Tenants)
	for i := range ts {
		if ts[i].Strategy == "" {
			ts[i].Strategy = LayoutBaseline
		}
	}
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Workload != ts[j].Workload {
			return ts[i].Workload < ts[j].Workload
		}
		if ts[i].Strategy != ts[j].Strategy {
			return ts[i].Strategy < ts[j].Strategy
		}
		return ts[i].QuotaPct < ts[j].QuotaPct
	})
	c.Tenants = ts
	return c
}

// validate rejects configs the fleet protocol cannot measure faithfully.
func (c FleetConfig) validate() error {
	if len(c.Tenants) == 0 {
		return fmt.Errorf("eval: fleet needs at least one tenant")
	}
	seen := make(map[string]bool, len(c.Tenants))
	for _, t := range c.Tenants {
		if t.QuotaPct < 0 || t.QuotaPct > 100 {
			return fmt.Errorf("eval: fleet tenant %s/%s quota %d%% outside [0, 100]",
				t.Workload, t.Strategy, t.QuotaPct)
		}
		k := t.Workload + "\x00" + t.Strategy
		if seen[k] {
			return fmt.Errorf("eval: duplicate fleet tenant %s/%s (pairs must be distinct)",
				t.Workload, t.Strategy)
		}
		seen[k] = true
	}
	return nil
}

// key canonicalizes the config for memoization (tenants already sorted by
// withDefaults).
func (c FleetConfig) key() string {
	var b strings.Builder
	for _, t := range c.Tenants {
		fmt.Fprintf(&b, "%s|%s|%d\x02", t.Workload, t.Strategy, t.QuotaPct)
	}
	fmt.Fprintf(&b, "\x01%d/%d/%d/%d/%d/%d/%d/%d/%t",
		c.Bursts, c.BurstSize, c.PressurePct, c.CacheBudget, c.Policy,
		c.HotPct, c.HotRoutes, c.Seed, c.RecordRequests)
	return b.String()
}

// serveConfig projects the shared scenario knobs onto a single-stream
// ServeConfig — the config of the solo baseline runs the isolation
// factors compare against.
func (c FleetConfig) serveConfig() ServeConfig {
	return ServeConfig{
		Bursts: c.Bursts, BurstSize: c.BurstSize, PressurePct: c.PressurePct,
		CacheBudget: c.CacheBudget, Policy: c.Policy,
		HotPct: c.HotPct, HotRoutes: c.HotRoutes, Seed: c.Seed,
	}
}

// TenantOutcome is one tenant's view of a fleet run: the same telemetry a
// solo ServeOutcome carries, plus the tenant-partitioned counters and the
// isolation factors against the tenant's solo run.
type TenantOutcome struct {
	Spec   TenantSpec `json:"spec"`
	Tenant int        `json:"tenant"`
	// QuotaPages is the resolved residency quota (0: none).
	QuotaPages int `json:"quota_pages,omitempty"`
	// StartupNanos is the tenant's own time to first response.
	StartupNanos float64 `json:"startup_nanos"`
	// Bursts is the tenant's per-burst telemetry, same shape as a solo
	// serve run; Resident is the tenant's resident pages at each burst end
	// (the owner-side residency timeline).
	Bursts   []BurstMeasure `json:"bursts"`
	Resident []int64        `json:"resident"`
	// Warm aggregates over the warm bursts (1..).
	WarmMeanNanos float64 `json:"warm_mean_nanos"`
	WarmP99Nanos  float64 `json:"warm_p99_nanos"`
	// Owner-side churn: pages of this tenant's file evicted (any evictor)
	// and re-faulted over the run, and resident at run end.
	EvictedPages  int64 `json:"evicted_pages"`
	RefaultPages  int64 `json:"refault_pages"`
	ResidentPages int64 `json:"resident_pages"`
	// Counters is the charge-side partition: faults this tenant's own
	// accesses took (osim.TenantFaults), summing across tenants to the OS
	// totals — the reconciliation contract fleet_test.go enforces.
	Counters osim.TenantFaults `json:"counters"`
	// Attainment scores the tenant's warm latencies against the default
	// SLO targets.
	Attainment []obs.SLOAttainment `json:"attainment,omitempty"`
	// Solo-run comparison (same workload, strategy, budget and pressure,
	// alone on the OS): IsolationLatency is in-fleet / solo warm mean;
	// IsolationRefault the add-one-smoothed re-fault ratio.
	SoloWarmMeanNanos float64 `json:"solo_warm_mean_nanos,omitempty"`
	SoloRefaults      int64   `json:"solo_refaults,omitempty"`
	IsolationLatency  float64 `json:"isolation_latency,omitempty"`
	IsolationRefault  float64 `json:"isolation_refault,omitempty"`
}

// FleetOutcome is one build's fleet run.
type FleetOutcome struct {
	Config  FleetConfig      `json:"config"`
	Tenants []*TenantOutcome `json:"tenants"`
	// EvictedBy is the interference matrix, normalized to exactly
	// (len(Tenants)+1)²: [i][j] counts pages owned by tenant j-1 that
	// tenant i-1's faults evicted (row 0: external reclaim pressure,
	// column 0: untenanted files — always zero here, every file is owned).
	EvictedBy      [][]int64 `json:"evicted_by"`
	TotalEvictions int64     `json:"total_evictions"`
	// Whole-OS totals, the right-hand side of the partition contracts:
	// per-tenant counters must sum to these exactly.
	TotalFaults      int64 `json:"total_faults"`
	TotalMajorFaults int64 `json:"total_major_faults"`
	TotalRefaults    int64 `json:"total_refaults"`
	TotalIONanos     int64 `json:"total_io_nanos"`
	ResidentPages    int   `json:"resident_pages"`
	// Requests is the bounded per-request trace (streams are tenants);
	// nil unless FleetConfig.RecordRequests. Report is the obs snapshot
	// (per-tenant latency histograms and burst timelines); nil unless the
	// harness observes.
	Requests *obs.RequestTrace `json:"requests,omitempty"`
	Report   *obs.Snapshot     `json:"report,omitempty"`
}

// FleetReport converts the outcome into the serializable fleet document
// (obs.FleetReport), deep-copying the matrix so the document and the
// outcome never alias.
func (fo *FleetOutcome) FleetReport() *obs.FleetReport {
	rep := &obs.FleetReport{
		Schema:         obs.FleetSchema,
		Bursts:         fo.Config.Bursts,
		BurstSize:      fo.Config.BurstSize,
		CacheBudget:    fo.Config.CacheBudget,
		PressurePct:    fo.Config.PressurePct,
		Policy:         fo.Config.Policy.String(),
		Targets:        obs.DefaultSLOTargets(),
		EvictedBy:      make([][]int64, len(fo.EvictedBy)),
		TotalEvictions: fo.TotalEvictions,
	}
	for i, row := range fo.EvictedBy {
		rep.EvictedBy[i] = append([]int64(nil), row...)
	}
	for i, tn := range fo.Tenants {
		ft := obs.FleetTenant{
			Tenant: i, Workload: tn.Spec.Workload, Strategy: tn.Spec.Strategy,
			QuotaPages:        tn.QuotaPages,
			StartupNanos:      tn.StartupNanos,
			WarmMeanNanos:     tn.WarmMeanNanos,
			WarmP99Nanos:      tn.WarmP99Nanos,
			Faults:            tn.Counters.Faults,
			MajorFaults:       tn.Counters.MajorFaults,
			Refaults:          tn.Counters.Refaults,
			IONanos:           tn.Counters.IONanos,
			EvictedPages:      tn.EvictedPages,
			ResidentPages:     tn.ResidentPages,
			Attainment:        tn.Attainment,
			SoloWarmMeanNanos: tn.SoloWarmMeanNanos,
			SoloRefaults:      tn.SoloRefaults,
			IsolationLatency:  tn.IsolationLatency,
			IsolationRefault:  tn.IsolationRefault,
		}
		for b, bm := range tn.Bursts {
			fb := obs.FleetBurst{
				Burst: b, Requests: bm.Requests,
				MeanNanos: bm.MeanNanos, P99Nanos: bm.P99Nanos,
				MajorFaults: bm.MajorFaults, Refaults: bm.Refaults,
				EvictedPages: bm.EvictedPages,
			}
			if b < len(tn.Resident) {
				fb.ResidentPages = tn.Resident[b]
			}
			ft.Timeline = append(ft.Timeline, fb)
		}
		rep.Tenants = append(rep.Tenants, ft)
	}
	return rep
}

// MeasureFleet runs the fleet scenario over every build seed and returns
// one outcome per build. Results are memoized per canonical config; the
// tenants' images and solo baselines are shared with MeasureServe, so a
// fleet sweep rebuilds nothing a serve sweep already built.
func (h *Harness) MeasureFleet(fcfg FleetConfig) ([]*FleetOutcome, error) {
	fcfg = fcfg.withDefaults()
	if err := fcfg.validate(); err != nil {
		return nil, err
	}
	return memo(h, h.fleetCache, "fleet\x00"+fcfg.key(), func() ([]*FleetOutcome, error) {
		return h.measureFleet(fcfg)
	})
}

// measureFleet resolves the tenants and measures every tenant's solo
// baseline first (memoized — this also warms the serve-image cache the
// fleet runs map from), then fans the fleet builds out across the worker
// pool. The outcome slice is indexed by build: bit-identical results for
// every worker count.
func (h *Harness) measureFleet(fcfg FleetConfig) ([]*FleetOutcome, error) {
	scfg := fcfg.serveConfig()
	ws := make([]workloads.Workload, len(fcfg.Tenants))
	solo := make([][]*ServeOutcome, len(fcfg.Tenants))
	for i, t := range fcfg.Tenants {
		w, err := workloads.ByName(t.Workload)
		if err != nil {
			return nil, fmt.Errorf("eval: fleet tenant %d: %w", i, err)
		}
		if w.Serve == nil {
			return nil, fmt.Errorf("eval: fleet tenant %s has no serve spec", t.Workload)
		}
		ws[i] = w
		if solo[i], err = h.MeasureServe(w, t.Strategy, scfg); err != nil {
			return nil, err
		}
	}
	rcfg := scfg.withDefaults()
	rcfg.RecordRequests = fcfg.RecordRequests
	out := make([]*FleetOutcome, h.Cfg.Builds)
	err := h.forEach(h.Cfg.Builds, func(bld int) error {
		h.sched.buildTasks.Add(1)
		ts := make([]engineTenant, len(fcfg.Tenants))
		for i, t := range fcfg.Tenants {
			img, err := h.serveImage(ws[i], t.Strategy, bld)
			if err != nil {
				return err
			}
			ts[i] = engineTenant{spec: t, img: img, w: ws[i]}
		}
		run, err := h.runEngine(ts, rcfg, true, false)
		if err != nil {
			return err
		}
		fo := run.fo
		fo.Config = fcfg
		for i, tn := range fo.Tenants {
			s := solo[i][bld]
			tn.SoloWarmMeanNanos = s.WarmMeanNanos
			tn.SoloRefaults = s.RefaultPages
			if s.WarmMeanNanos > 0 {
				tn.IsolationLatency = tn.WarmMeanNanos / s.WarmMeanNanos
			}
			tn.IsolationRefault = float64(1+tn.RefaultPages) / float64(1+s.RefaultPages)
		}
		out[bld] = fo
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// normalizeMatrix pads the lazily-grown osim interference matrix to
// exactly (tenants+1)² — the shape the fleet codec validates.
func normalizeMatrix(mat [][]int64, tenants int) [][]int64 {
	out := make([][]int64, tenants+1)
	for i := range out {
		out[i] = make([]int64, tenants+1)
		if i < len(mat) {
			copy(out[i], mat[i])
		}
	}
	return out
}
