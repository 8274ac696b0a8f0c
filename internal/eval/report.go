package eval

import (
	"io"
	"math"
	"time"

	"nimage/internal/core"
	"nimage/internal/obs"
	"nimage/internal/obs/affinity"
	"nimage/internal/obs/attrib"
	"nimage/internal/workloads"
)

// ReportSchema versions the consolidated run-report document. v2 added the
// per-entry fault attribution table (merged over all builds × iterations)
// and the per-measure attribution tables inside Runs; v3 added the optional
// per-entry serve-mode outcomes (burst telemetry under cache pressure); v4
// added the per-entry temporal co-access affinity graph (merged over builds
// and iterations, schema nimage.affinity/v1) and the per-measure layout
// scorecards; v5 added the optional top-level SLO section (schema
// nimage.slo/v1: per-strategy attainment and error-budget burn over the
// serve request traces) and the per-outcome request traces behind it;
// v6 adds the optional top-level fleet section (schema nimage.fleet/v1:
// per-tenant scorecards and the cross-tenant interference matrix of a
// shared-cache fleet run).
const ReportSchema = "nimage.report/v6"

// Report is the consolidated observability document the evaluation emits:
// per workload and strategy, the build-pipeline snapshots (stage spans,
// profiler dump statistics, match gauges) and the per-build cold-start
// snapshots (fault timelines, instruction mix, run totals).
type Report struct {
	Schema string `json:"schema"`
	Device string `json:"device"`
	Builds int    `json:"builds"`
	// Workers is the scheduler's worker-pool size while producing this
	// document.
	Workers int `json:"workers"`
	// ParallelSpeedup is the ratio of cumulative build+measure task time
	// to the wall-clock time the measurements took — the effective
	// parallelism the scheduler achieved (≈1 for a serial run, 0 when
	// everything was already memoized).
	ParallelSpeedup float64       `json:"parallel_speedup"`
	Entries         []ReportEntry `json:"entries"`
	// SLO is the serve SLO scorecard built from the entries' request
	// traces (schema nimage.slo/v1); nil unless the report was produced by
	// the serve protocol with request recording on.
	SLO *obs.SLOReport `json:"slo,omitempty"`
	// Fleet is the multi-tenant observatory scorecard (schema
	// nimage.fleet/v1); nil unless the report was produced by a fleet run.
	Fleet *obs.FleetReport `json:"fleet,omitempty"`
}

// ReportEntry is the report of one (workload, strategy) pair. Strategy is
// empty for the unmodified baseline images.
type ReportEntry struct {
	Workload string `json:"workload"`
	Service  bool   `json:"service"`
	Strategy string `json:"strategy,omitempty"`
	// Pipeline holds one snapshot per build: stage durations of every
	// image build plus, for strategies, the profiling run and
	// post-processing phases and the profiler's buffer statistics.
	Pipeline []*obs.Snapshot `json:"pipeline,omitempty"`
	// Runs holds one cold-start snapshot per build.
	Runs []*obs.Snapshot `json:"runs,omitempty"`
	// Measures are the scalar per-build measurements (with Report and
	// Attrib stripped — the snapshots live in Runs, the attribution merged
	// in Attribution).
	Measures []RunMeasure `json:"measures"`
	// Attribution is the per-symbol fault attribution merged over the
	// builds of the entry (schema nimage.attrib/v1); nil
	// unless the harness observes.
	Attribution *attrib.Table `json:"attribution,omitempty"`
	// Affinity is the temporal co-access graph merged over the builds of
	// the entry (schema nimage.affinity/v1); nil unless the
	// harness observes or tracks affinity. The per-measure scorecards stay
	// inside Measures/Serve.
	Affinity *affinity.Graph `json:"affinity,omitempty"`
	// HeapMatch is the object match breakdown of the last optimized build;
	// nil for the baseline and for pure code strategies.
	HeapMatch *core.MatchBreakdown `json:"heap_match,omitempty"`
	// Serve holds the serve-mode outcomes (one per build) when the entry
	// was produced by the serve protocol; nil for cold-start entries.
	Serve []*ServeOutcome `json:"serve,omitempty"`
}

// Report measures every workload against every strategy (plus baseline)
// and assembles the consolidated document. The harness should be
// configured with Observe: true — otherwise the entries carry scalar
// measures only.
func (h *Harness) Report(ws []workloads.Workload, strategies []string) (*Report, error) {
	rep := &Report{
		Schema:  ReportSchema,
		Device:  h.Cfg.Device.Name,
		Builds:  h.Cfg.Builds,
		Workers: h.Workers(),
	}
	start := time.Now()
	workBefore := h.WorkDuration()
	if err := h.Prefetch(ws, strategies); err != nil {
		return nil, err
	}
	if wall := time.Since(start); wall > 0 {
		work := h.WorkDuration() - workBefore
		// Rounded so the document stays readable; the value is inherently
		// timing-dependent (unlike the measures, which are deterministic).
		rep.ParallelSpeedup = math.Round(100*work.Seconds()/wall.Seconds()) / 100
	}
	for _, w := range ws {
		for _, s := range append([]string{LayoutBaseline}, strategies...) {
			out, err := h.MeasureStrategy(w, s)
			if err != nil {
				return nil, err
			}
			e := ReportEntry{
				Workload:    w.Name,
				Service:     w.Service,
				Pipeline:    out.Pipeline,
				Runs:        stripReports(out.Measures),
				Measures:    scalarMeasures(out.Measures),
				Attribution: mergedAttribution(out.Measures),
				Affinity:    mergedAffinity(out.Measures),
			}
			if s != LayoutBaseline {
				e.Strategy = s
			}
			if out.HeapMatch.Strategy != "" {
				hm := out.HeapMatch
				e.HeapMatch = &hm
			}
			rep.Entries = append(rep.Entries, e)
		}
	}
	return rep, nil
}

// ServeReport measures one serve workload under the baseline and the given
// strategies and assembles a consolidated document: one entry per layout,
// carrying the per-build serve outcomes (with their obs snapshots in Runs
// and the attribution merged across builds). When the config records
// requests, the per-layout request traces are additionally scored against
// DefaultSLOTargets into the report's SLO section (at the config's single
// pressure level — the full sweep lives in Harness.SLOReport).
func (h *Harness) ServeReport(w workloads.Workload, strategies []string, scfg ServeConfig) (*Report, error) {
	rep := &Report{
		Schema:  ReportSchema,
		Device:  h.Cfg.Device.Name,
		Builds:  h.Cfg.Builds,
		Workers: h.Workers(),
	}
	dcfg := scfg.withDefaults()
	targets := obs.DefaultSLOTargets()
	for _, s := range append([]string{LayoutBaseline}, strategies...) {
		outs, err := h.MeasureServe(w, s, scfg)
		if err != nil {
			return nil, err
		}
		if scfg.RecordRequests {
			if rep.SLO == nil {
				rep.SLO = &obs.SLOReport{
					Schema:    obs.SLOSchema,
					Streams:   dcfg.Streams,
					Pressures: []int{dcfg.PressurePct},
					Targets:   targets,
				}
			}
			rep.SLO.Entries = append(rep.SLO.Entries, sloEntry(w.Name, s, dcfg, outs, targets))
		}
		e := ReportEntry{
			Workload: w.Name,
			Service:  true,
			Serve:    make([]*ServeOutcome, 0, len(outs)),
		}
		if s != LayoutBaseline {
			e.Strategy = s
		}
		var tabs []*attrib.Table
		var graphs []*affinity.Graph
		for _, o := range outs {
			oc := *o
			if oc.Report != nil {
				e.Runs = append(e.Runs, oc.Report)
				oc.Report = nil
			}
			if oc.Attrib != nil {
				tabs = append(tabs, oc.Attrib)
				oc.Attrib = nil
			}
			if oc.Affinity != nil {
				// The merged graph lives once on the entry; the per-build
				// scorecards stay on the outcomes.
				graphs = append(graphs, oc.Affinity)
				oc.Affinity = nil
			}
			e.Serve = append(e.Serve, &oc)
		}
		if len(tabs) > 0 {
			e.Attribution = attrib.Merge(tabs...)
		}
		if len(graphs) > 0 {
			e.Affinity = affinity.Merge(graphs...)
		}
		rep.Entries = append(rep.Entries, e)
	}
	return rep, nil
}

// FleetServeReport wraps one fleet run in the consolidated report
// document: one entry per tenant names the fleet's workload × strategy
// pairs (with the tenant's obs snapshot in Runs), and the Fleet section
// carries the nimage.fleet/v1 scorecard with the interference matrix.
func (h *Harness) FleetServeReport(fcfg FleetConfig) (*Report, error) {
	fos, err := h.MeasureFleet(fcfg)
	if err != nil {
		return nil, err
	}
	fo := fos[0]
	rep := &Report{
		Schema:  ReportSchema,
		Device:  h.Cfg.Device.Name,
		Builds:  h.Cfg.Builds,
		Workers: h.Workers(),
		Fleet:   fo.FleetReport(),
	}
	// The fleet run shares one OS, hence one snapshot; attach it to the
	// first entry only so the document stays non-redundant.
	snap := fo.Report
	for _, t := range fo.Tenants {
		e := ReportEntry{Workload: t.Spec.Workload, Service: true}
		if t.Spec.Strategy != LayoutBaseline {
			e.Strategy = t.Spec.Strategy
		}
		if snap != nil {
			e.Runs = []*obs.Snapshot{snap}
			snap = nil
		}
		rep.Entries = append(rep.Entries, e)
	}
	return rep, nil
}

// stripReports extracts the run snapshots of the measures.
func stripReports(ms []RunMeasure) []*obs.Snapshot {
	var out []*obs.Snapshot
	for _, m := range ms {
		if m.Report != nil {
			out = append(out, m.Report)
		}
	}
	return out
}

// scalarMeasures copies the measures without their snapshots, attribution
// tables and affinity graphs (the entry carries those once, in Runs,
// Attribution and Affinity); the small per-measure scorecards survive.
func scalarMeasures(ms []RunMeasure) []RunMeasure {
	out := make([]RunMeasure, len(ms))
	copy(out, ms)
	for i := range out {
		out[i].Report = nil
		out[i].Attrib = nil
		out[i].Affinity = nil
	}
	return out
}

// mergedAttribution folds the per-build attribution tables of the
// measures into one table (nil when the harness ran detached).
func mergedAttribution(ms []RunMeasure) *attrib.Table {
	var tabs []*attrib.Table
	for _, m := range ms {
		if m.Attrib != nil {
			tabs = append(tabs, m.Attrib)
		}
	}
	if len(tabs) == 0 {
		return nil
	}
	return attrib.Merge(tabs...)
}

// mergedAffinity folds the per-build affinity graphs of the measures
// into one graph (nil when the harness ran without affinity tracking).
func mergedAffinity(ms []RunMeasure) *affinity.Graph {
	var graphs []*affinity.Graph
	for _, m := range ms {
		if m.Affinity != nil {
			graphs = append(graphs, m.Affinity)
		}
	}
	if len(graphs) == 0 {
		return nil
	}
	return affinity.Merge(graphs...)
}

// WriteJSON writes the report as an indented JSON document.
func (r *Report) WriteJSON(w io.Writer) error { return obs.WriteDoc(w, r) }
