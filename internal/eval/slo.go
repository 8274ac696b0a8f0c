package eval

// The serve SLO observatory's measurement side: pressure-sweep SLO
// scorecards over the serve harness (Harness.SLOReport) and the
// observability-overhead control (Harness.ServeTelemetryOverhead). The
// scorecards answer the ROADMAP's "SLO measured under contention"
// question — every strategy competes on attainment and error-budget
// burn over concurrent request streams at several pressure levels —
// and the overhead control keeps the observatory honest about its own
// cost, in the go-observability-bench idiom of running the identical
// scenario with telemetry on and off and reporting the delta.

import (
	"fmt"
	"sort"
	"time"

	"nimage/internal/obs"
	"nimage/internal/workloads"
)

// DefaultSLOPressures are the sweep's pressure levels: no reclaim, mild
// and severe inter-burst pressure.
func DefaultSLOPressures() []int { return []int{0, 30, 70} }

// SLOReport sweeps the pressure levels and scores the baseline plus
// every strategy on each serve workload against the SLO targets,
// returning the consolidated nimage.slo/v1 document. Nil arguments take
// defaults: every serve workload, ServeStrategies(), DefaultSLOTargets,
// DefaultSLOPressures. The config's RecordRequests is forced on (the
// attainment math consumes the per-request traces); its PressurePct is
// overridden per sweep level. One telemetry-on/off overhead control per
// workload rides along in Overhead.
func (h *Harness) SLOReport(ws []workloads.Workload, strategies []string, scfg ServeConfig, targets []obs.SLOTarget, pressures []int) (*obs.SLOReport, error) {
	if ws == nil {
		ws = workloads.Serve()
	}
	if strategies == nil {
		strategies = ServeStrategies()
	}
	if len(pressures) == 0 {
		pressures = DefaultSLOPressures()
	}
	if len(targets) == 0 {
		targets = obs.DefaultSLOTargets()
	}
	scfg = scfg.withDefaults()
	scfg.RecordRequests = true
	rep := &obs.SLOReport{
		Schema:    obs.SLOSchema,
		Streams:   scfg.Streams,
		Pressures: append([]int(nil), pressures...),
		Targets:   append([]obs.SLOTarget(nil), targets...),
	}
	layouts := append([]string{LayoutBaseline}, strategies...)
	for _, p := range pressures {
		pcfg := scfg
		pcfg.PressurePct = p
		for _, w := range ws {
			for _, s := range layouts {
				outs, err := h.MeasureServe(w, s, pcfg)
				if err != nil {
					return nil, err
				}
				rep.Entries = append(rep.Entries, sloEntry(w.Name, s, pcfg, outs, targets))
			}
		}
	}
	// The overhead control runs at the sweep's middle pressure — the
	// telemetry cost is a property of the recorder, not of the pressure
	// level, so one control per workload suffices.
	ocfg := scfg
	ocfg.PressurePct = pressures[len(pressures)/2]
	for _, w := range ws {
		oh, err := h.ServeTelemetryOverhead(w, LayoutBaseline, ocfg, 2)
		if err != nil {
			return nil, err
		}
		rep.Overhead = append(rep.Overhead, *oh)
	}
	return rep, nil
}

// sloEntry folds the warm request latencies of every build's trace into
// one attainment row. Cold burst 0 is excluded unless it is the only
// burst, matching the warm aggregates of the serve figures.
func sloEntry(workload, strategy string, scfg ServeConfig, outs []*ServeOutcome, targets []obs.SLOTarget) obs.SLOEntry {
	var warm []float64
	for _, o := range outs {
		if o.Requests == nil {
			continue
		}
		for _, r := range o.Requests.Records {
			if r.Burst >= 1 || scfg.Bursts == 1 {
				warm = append(warm, r.LatencyNanos)
			}
		}
	}
	sort.Float64s(warm)
	return obs.SLOEntry{
		Workload:    workload,
		Strategy:    strategy,
		PressurePct: scfg.PressurePct,
		Streams:     scfg.Streams,
		Requests:    len(warm),
		Attainments: obs.Attainment(warm, targets),
	}
}

// ServeTelemetryOverhead runs the identical serve scenario twice — once
// with telemetry fully on (obs registry, fault attribution, per-request
// trace) and once fully detached — and reports the wall-clock
// per-request delta. The simulated outcomes must be bit-identical
// (telemetry never perturbs the simulation; SimIdentical reports the
// check), so the delta isolates the observatory's own host-side cost.
// The two runs execute serially on fresh single-build shadow harnesses;
// image builds are excluded from the timing. Wall time is inherently
// non-deterministic — the result is a tracked number, like the report's
// ParallelSpeedup, and stays out of every bit-determinism surface.
func (h *Harness) ServeTelemetryOverhead(w workloads.Workload, strategy string, scfg ServeConfig, repeats int) (*obs.SLOOverhead, error) {
	if w.Serve == nil {
		return nil, fmt.Errorf("eval: workload %s has no serve spec", w.Name)
	}
	if strategy == "" {
		strategy = LayoutBaseline
	}
	if repeats < 1 {
		repeats = 1
	}
	scfg = scfg.withDefaults()
	onCfg := h.Cfg
	onCfg.Builds = 1
	onCfg.Workers = 1
	onCfg.Observe = true
	offCfg := onCfg
	offCfg.Observe = false
	offCfg.TrackAffinity = false
	onScfg := scfg
	onScfg.RecordRequests = true
	offScfg := scfg
	offScfg.RecordRequests = false

	run := func(cfg Config, rcfg ServeConfig) (*ServeOutcome, float64, error) {
		hh := NewHarness(cfg)
		img, err := hh.serveImage(w, strategy, 0)
		if err != nil {
			return nil, 0, err
		}
		var last *ServeOutcome
		start := time.Now()
		for i := 0; i < repeats; i++ {
			o, err := hh.runServe(img, w, strategy, rcfg, false)
			if err != nil {
				return nil, 0, err
			}
			last = o
		}
		wall := float64(time.Since(start).Nanoseconds())
		reqs := float64(rcfg.Bursts * rcfg.BurstSize * rcfg.Streams * repeats)
		return last, wall / reqs, nil
	}
	onOut, onPer, err := run(onCfg, onScfg)
	if err != nil {
		return nil, fmt.Errorf("eval: telemetry-on overhead run of %s: %w", w.Name, err)
	}
	offOut, offPer, err := run(offCfg, offScfg)
	if err != nil {
		return nil, fmt.Errorf("eval: telemetry-off overhead run of %s: %w", w.Name, err)
	}
	oh := &obs.SLOOverhead{
		Workload:           w.Name,
		Strategy:           strategy,
		Requests:           scfg.Bursts * scfg.BurstSize * scfg.Streams,
		OnWallNanosPerReq:  onPer,
		OffWallNanosPerReq: offPer,
		SimIdentical:       sameSimOutcome(onOut, offOut),
	}
	if offPer > 0 {
		oh.OverheadFrac = onPer/offPer - 1
	}
	return oh, nil
}

// sameSimOutcome compares the simulated (deterministic) surface of two
// serve outcomes: startup, every burst measure, warm aggregates and the
// run's eviction totals. Telemetry fields (Report, Attrib, Affinity,
// Requests) are deliberately outside the comparison — they are what
// differs between the control runs.
func sameSimOutcome(a, b *ServeOutcome) bool {
	if a == nil || b == nil {
		return false
	}
	if a.StartupNanos != b.StartupNanos ||
		a.WarmMeanNanos != b.WarmMeanNanos ||
		a.WarmP99Nanos != b.WarmP99Nanos ||
		a.EvictedPages != b.EvictedPages ||
		a.RefaultPages != b.RefaultPages ||
		len(a.Bursts) != len(b.Bursts) {
		return false
	}
	for i := range a.Bursts {
		if a.Bursts[i] != b.Bursts[i] {
			return false
		}
	}
	return true
}
