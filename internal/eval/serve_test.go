package eval

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nimage/internal/core"
	"nimage/internal/workloads"
)

func serveTestConfig() ServeConfig {
	return ServeConfig{
		Bursts: 3, BurstSize: 8, PressurePct: 60,
		HotPct: 80, HotRoutes: 3, Seed: 7,
	}
}

func serveWorkload(t *testing.T, name string) workloads.Workload {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestMeasureServeBaseline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	h := NewHarness(cfg)
	w := serveWorkload(t, "serve-api")
	scfg := serveTestConfig()
	outs, err := h.MeasureServe(w, "", scfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("got %d outcomes, want 1 per build", len(outs))
	}
	o := outs[0]
	if o.Strategy != LayoutBaseline {
		t.Errorf("strategy = %q, want %q", o.Strategy, LayoutBaseline)
	}
	if o.StartupNanos <= 0 {
		t.Errorf("startup nanos = %v", o.StartupNanos)
	}
	if len(o.Bursts) != scfg.Bursts {
		t.Fatalf("got %d bursts, want %d", len(o.Bursts), scfg.Bursts)
	}
	for i, b := range o.Bursts {
		if b.Burst != i || b.Requests != scfg.BurstSize {
			t.Errorf("burst %d: index %d requests %d", i, b.Burst, b.Requests)
		}
		if b.P50Nanos <= 0 || b.P99Nanos < b.P50Nanos || b.P90Nanos < b.P50Nanos {
			t.Errorf("burst %d: quantiles p50=%v p90=%v p99=%v", i, b.P50Nanos, b.P90Nanos, b.P99Nanos)
		}
		if b.MinorFaults < 0 || b.MajorFaults < 0 {
			t.Errorf("burst %d: negative fault counts", i)
		}
		if b.ResidentText <= 0 {
			t.Errorf("burst %d: no resident .text pages", i)
		}
	}
	// The cold burst faults the handlers in.
	if o.Bursts[0].MajorFaults == 0 {
		t.Error("cold burst took no major faults")
	}
	// Inter-burst pressure must actually evict pages.
	if o.EvictedPages == 0 {
		t.Error("no pages evicted despite 60% inter-burst pressure")
	}
	var burstEvicted int64
	for _, b := range o.Bursts {
		burstEvicted += b.EvictedPages
	}
	// Without a cache budget nothing is evicted during startup, so the
	// per-burst deltas must account for every eviction of the run.
	if burstEvicted != o.EvictedPages {
		t.Errorf("per-burst evictions %d != run total %d", burstEvicted, o.EvictedPages)
	}
	if o.WarmMeanNanos <= 0 || o.WarmP99Nanos < o.WarmMeanNanos {
		t.Errorf("warm aggregates mean=%v p99=%v", o.WarmMeanNanos, o.WarmP99Nanos)
	}
}

// TestServeReconciliation is the acceptance contract of the serve
// telemetry: driving a full serve run with attribution attached, the
// eviction and re-fault totals reported by the attribution recorder, the
// osim file counters (surfaced in the outcome) and the per-burst deltas
// must reconcile exactly.
func TestServeReconciliation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	cfg.Observe = true
	h := NewHarness(cfg)
	w := serveWorkload(t, "serve-cache")
	// A tight resident budget forces eviction churn during the bursts:
	// every cold handler fault pushes some other route's pages out, so
	// revisited routes re-fault.
	scfg := ServeConfig{
		Bursts: 3, BurstSize: 8, CacheBudget: 48,
		HotPct: 0, HotRoutes: 1, Seed: 11,
	}
	outs, err := h.MeasureServe(w, "", scfg)
	if err != nil {
		t.Fatal(err)
	}
	o := outs[0]
	if o.EvictedPages == 0 {
		t.Fatal("budget produced no evictions")
	}
	if o.RefaultPages == 0 {
		t.Fatal("budget churn produced no re-faults")
	}
	if o.Attrib == nil {
		t.Fatal("observed run carries no attribution table")
	}
	var attribEvicted, attribRefaults int64
	for _, s := range o.Attrib.Sections {
		attribEvicted += s.Evicted
		attribRefaults += s.Refaults
	}
	if attribEvicted != o.EvictedPages {
		t.Errorf("attribution evictions %d != file total %d", attribEvicted, o.EvictedPages)
	}
	if attribRefaults != o.RefaultPages {
		t.Errorf("attribution refaults %d != file total %d", attribRefaults, o.RefaultPages)
	}
	// Per-burst re-fault deltas never exceed the run total (startup churn
	// accounts for the rest).
	var burstRefaults int64
	for _, b := range o.Bursts {
		burstRefaults += b.Refaults
	}
	if burstRefaults > o.RefaultPages {
		t.Errorf("per-burst refaults %d exceed run total %d", burstRefaults, o.RefaultPages)
	}
	// The obs snapshot carries the burst timeline and latency histogram.
	if o.Report == nil {
		t.Fatal("observed run carries no snapshot")
	}
	foundTl, foundHist := false, false
	for _, tl := range o.Report.Timelines {
		if tl.Name == "serve.burst" {
			foundTl = true
			if len(tl.Events) != scfg.Bursts {
				t.Errorf("burst timeline has %d events, want %d", len(tl.Events), scfg.Bursts)
			}
		}
	}
	for _, hp := range o.Report.Histograms {
		if hp.Name == "serve.latency_nanos" {
			foundHist = true
			if hp.Count != int64(scfg.Bursts*scfg.BurstSize) {
				t.Errorf("latency histogram count %d, want %d", hp.Count, scfg.Bursts*scfg.BurstSize)
			}
			if p99 := hp.Quantile(0.99); p99 <= 0 {
				t.Errorf("latency p99 = %v", p99)
			}
		}
	}
	if !foundTl || !foundHist {
		t.Fatalf("snapshot missing serve telemetry: timeline=%v histogram=%v", foundTl, foundHist)
	}
}

func TestMeasureServeMemoized(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	h := NewHarness(cfg)
	w := serveWorkload(t, "serve-api")
	scfg := serveTestConfig()
	a, err := h.MeasureServe(w, "", scfg)
	if err != nil {
		t.Fatal(err)
	}
	tasks := h.sched.buildTasks.Load()
	b, err := h.MeasureServe(w, LayoutBaseline, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("second measurement did not hit the cache")
	}
	if got := h.sched.buildTasks.Load(); got != tasks {
		t.Errorf("memoized measurement ran %d extra tasks", got-tasks)
	}
	// A different pressure level reuses the built image (no new pipeline),
	// but runs a fresh scenario.
	scfg2 := scfg
	scfg2.PressurePct = 0
	c, err := h.MeasureServe(w, "", scfg2)
	if err != nil {
		t.Fatal(err)
	}
	if c[0].EvictedPages != 0 {
		t.Errorf("pressure-free scenario evicted %d pages", c[0].EvictedPages)
	}
}

func TestServeDeterministicAcrossWorkers(t *testing.T) {
	w := serveWorkload(t, "serve-cache")
	scfg := serveTestConfig()
	var prev []*ServeOutcome
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Builds = 2
		cfg.Workers = workers
		// Affinity graphs and scorecards are part of the determinism
		// contract: reflect.DeepEqual below covers their every edge
		// weight and window, for every worker count.
		cfg.TrackAffinity = true
		h := NewHarness(cfg)
		outs, err := h.MeasureServe(w, "", scfg)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !reflect.DeepEqual(deref(prev), deref(outs)) {
			t.Fatalf("outcomes differ between worker counts 1 and %d", workers)
		}
		prev = outs
	}
}

func deref(outs []*ServeOutcome) []ServeOutcome {
	vals := make([]ServeOutcome, len(outs))
	for i, o := range outs {
		vals[i] = *o
	}
	return vals
}

func TestServeLatencyTable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	h := NewHarness(cfg)
	scfg := serveTestConfig()
	tb, err := h.ServeLatencyTable(nil, scfg, []string{core.StrategyCU})
	if err != nil {
		t.Fatal(err)
	}
	nServe := len(workloads.Serve())
	// One cell per serve workload plus the geomean row.
	if len(tb.Cells) != nServe+1 {
		t.Fatalf("got %d cells, want %d", len(tb.Cells), nServe+1)
	}
	for _, c := range tb.Cells {
		if c.Strategy != core.StrategyCU {
			t.Errorf("unexpected strategy %q", c.Strategy)
		}
		if !c.Degenerate && c.Factor <= 0 {
			t.Errorf("cell %s/%s factor %v", c.Workload, c.Strategy, c.Factor)
		}
	}
	if !strings.Contains(tb.Title, "pressure 60%") {
		t.Errorf("title %q missing pressure level", tb.Title)
	}
}

func TestServeReportV6(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	cfg.Observe = true
	h := NewHarness(cfg)
	w := serveWorkload(t, "serve-api")
	rep, err := h.ServeReport(w, nil, serveTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "nimage.report/v6" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if rep.SLO != nil {
		t.Error("report carries an SLO section without request recording")
	}
	if rep.Fleet != nil {
		t.Error("report carries a fleet section outside a fleet run")
	}
	if len(rep.Entries) != 1 {
		t.Fatalf("got %d entries, want 1 (baseline only)", len(rep.Entries))
	}
	e := rep.Entries[0]
	if e.Strategy != "" || !e.Service {
		t.Errorf("baseline entry strategy=%q service=%v", e.Strategy, e.Service)
	}
	if len(e.Serve) != cfg.Builds {
		t.Fatalf("entry carries %d serve outcomes, want %d", len(e.Serve), cfg.Builds)
	}
	// Snapshots, attribution and affinity are hoisted out of the outcomes
	// into the entry, like the cold-start report does with measures.
	if len(e.Runs) != cfg.Builds || e.Attribution == nil || e.Affinity == nil {
		t.Fatalf("runs=%d attribution=%v affinity=%v",
			len(e.Runs), e.Attribution != nil, e.Affinity != nil)
	}
	for _, o := range e.Serve {
		if o.Report != nil || o.Attrib != nil || o.Affinity != nil {
			t.Error("serve outcome still embeds its snapshot/attribution/affinity")
		}
		if o.Scorecard == nil {
			t.Error("serve outcome lost its layout scorecard")
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"serve"`) {
		t.Error("JSON document missing serve entries")
	}
}

func TestRouteForSkew(t *testing.T) {
	cfg := ServeConfig{HotPct: 100, HotRoutes: 3, Seed: 1}
	for k := 0; k < 200; k++ {
		if r := routeFor(k, cfg, 24); r >= 3 {
			t.Fatalf("request %d routed to %d with 100%% hot traffic", k, r)
		}
	}
	cfg.HotPct = 0
	seen := map[int]bool{}
	for k := 0; k < 500; k++ {
		r := routeFor(k, cfg, 24)
		if r < 0 || r >= 24 {
			t.Fatalf("route %d out of range", r)
		}
		seen[r] = true
	}
	if len(seen) < 12 {
		t.Errorf("uniform traffic hit only %d/24 routes", len(seen))
	}
	// Deterministic in the seed.
	if routeFor(42, cfg, 24) != routeFor(42, cfg, 24) {
		t.Error("routeFor not deterministic")
	}
}

// TestServeStreamsDeterministic is the acceptance contract of the
// multiplexed serve harness: with Streams >= 2 the outcomes — request
// traces included — are bit-identical for every worker count and across
// repeated runs.
func TestServeStreamsDeterministic(t *testing.T) {
	w := serveWorkload(t, "serve-cache")
	scfg := serveTestConfig()
	scfg.Streams = 3
	scfg.RecordRequests = true
	var prev []*ServeOutcome
	for _, workers := range []int{1, 4, 4} {
		cfg := DefaultConfig()
		cfg.Builds = 2
		cfg.Workers = workers
		h := NewHarness(cfg)
		outs, err := h.MeasureServe(w, "", scfg)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !reflect.DeepEqual(deref(prev), deref(outs)) {
			t.Fatalf("streamed outcomes differ at %d workers", workers)
		}
		prev = outs
	}
}

// TestServeSingleStreamBackCompat pins the Streams=1 protocol to the
// legacy single-client behavior: queue wait identically zero and the
// same route sequence, so pre-stream outcomes stay reproducible.
func TestServeSingleStreamBackCompat(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	h := NewHarness(cfg)
	w := serveWorkload(t, "serve-api")
	scfg := serveTestConfig()
	scfg.Streams = 1
	scfg.RecordRequests = true
	outs, err := h.MeasureServe(w, "", scfg)
	if err != nil {
		t.Fatal(err)
	}
	o := outs[0]
	if o.Requests == nil {
		t.Fatal("recording run carries no request trace")
	}
	want := scfg.Bursts * scfg.BurstSize
	if len(o.Requests.Records) != want || o.Requests.Dropped != 0 {
		t.Fatalf("trace has %d records (%d dropped), want %d",
			len(o.Requests.Records), o.Requests.Dropped, want)
	}
	for i, r := range o.Requests.Records {
		if r.QueueNanos != 0 {
			t.Fatalf("record %d: single stream queued %v nanos", i, r.QueueNanos)
		}
		if r.Stream != 0 {
			t.Fatalf("record %d: stream %d", i, r.Stream)
		}
		if r.Route != routeFor(i, scfg, w.Serve.Routes) {
			t.Fatalf("record %d: route %d diverges from the legacy sequence", i, r.Route)
		}
	}
	for i, b := range o.Bursts {
		if b.MeanQueueNanos != 0 || b.MaxQueueNanos != 0 {
			t.Errorf("burst %d: nonzero queue aggregates for a single stream", i)
		}
	}
	// Against a plain run without recording the simulated numbers match.
	plain := scfg
	plain.RecordRequests = false
	pouts, err := h.MeasureServe(w, "", plain)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSimOutcome(outs[0], pouts[0]) {
		t.Error("request recording perturbed the simulated outcome")
	}
}

// TestServeStreamTraceReconciliation drives a multi-stream recorded run
// and reconciles the trace against the burst measures, the burst fault
// deltas, and the per-stream latency histograms.
func TestServeStreamTraceReconciliation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	cfg.Observe = true
	h := NewHarness(cfg)
	w := serveWorkload(t, "serve-cache")
	scfg := ServeConfig{
		Bursts: 3, BurstSize: 6, Streams: 2, CacheBudget: 48,
		HotPct: 0, HotRoutes: 1, Seed: 11, RecordRequests: true,
	}
	outs, err := h.MeasureServe(w, "", scfg)
	if err != nil {
		t.Fatal(err)
	}
	o := outs[0]
	if o.Requests == nil {
		t.Fatal("recording run carries no request trace")
	}
	total := scfg.Bursts * scfg.BurstSize * scfg.Streams
	if len(o.Requests.Records) != total {
		t.Fatalf("trace has %d records, want %d", len(o.Requests.Records), total)
	}
	if o.Requests.Streams != scfg.Streams {
		t.Fatalf("trace streams = %d", o.Requests.Streams)
	}
	// Every burst measure aggregates exactly its records.
	perBurst := make([]int, scfg.Bursts)
	queued := false
	byStream := map[int]int{}
	var traceFaults, traceMajor, traceRefaults int64
	for _, r := range o.Requests.Records {
		perBurst[r.Burst]++
		byStream[r.Stream]++
		traceFaults += r.Faults
		traceMajor += r.MajorFaults
		traceRefaults += r.Refaults
		if r.QueueNanos > 0 {
			queued = true
		}
		if r.LatencyNanos != r.QueueNanos+r.ServiceNanos {
			t.Fatalf("record %d: latency %v != queue %v + service %v",
				r.ID, r.LatencyNanos, r.QueueNanos, r.ServiceNanos)
		}
	}
	for b, n := range perBurst {
		if n != scfg.BurstSize*scfg.Streams {
			t.Errorf("burst %d: %d records, want %d", b, n, scfg.BurstSize*scfg.Streams)
		}
		if o.Bursts[b].Requests != n {
			t.Errorf("burst %d: measure requests %d != trace %d", b, o.Bursts[b].Requests, n)
		}
	}
	for s := 0; s < scfg.Streams; s++ {
		if byStream[s] != scfg.Bursts*scfg.BurstSize {
			t.Errorf("stream %d served %d requests, want %d", s, byStream[s], scfg.Bursts*scfg.BurstSize)
		}
	}
	if !queued {
		t.Error("two closed-loop streams on one server never queued")
	}
	// Burst-boundary and reclaim marks on the shared clock.
	var bursts, reclaims int
	for _, m := range o.Requests.Marks {
		switch m.Kind {
		case "burst":
			bursts++
		case "reclaim":
			reclaims++
		}
	}
	if bursts != scfg.Bursts {
		t.Errorf("trace has %d burst marks, want %d", bursts, scfg.Bursts)
	}
	if reclaims != 0 {
		t.Errorf("trace has %d reclaim marks with zero pressure", reclaims)
	}
	// The per-burst fault deltas cover exactly the trace's attribution.
	var burstFaults, burstMajor, burstRefaults int64
	for _, b := range o.Bursts {
		burstFaults += b.MinorFaults + b.MajorFaults
		burstMajor += b.MajorFaults
		burstRefaults += b.Refaults
	}
	if traceFaults != burstFaults || traceMajor != burstMajor || traceRefaults != burstRefaults {
		t.Errorf("trace faults (%d/%d/%d) != burst deltas (%d/%d/%d)",
			traceFaults, traceMajor, traceRefaults, burstFaults, burstMajor, burstRefaults)
	}
	// The obs snapshot carries one latency histogram per stream whose
	// counts partition the run's requests.
	if o.Report == nil {
		t.Fatal("observed run carries no snapshot")
	}
	perStream := 0
	for _, hp := range o.Report.Histograms {
		var s int
		if _, err := fmt.Sscanf(hp.Name, "serve.stream%02d.latency_nanos", &s); err == nil {
			perStream++
			if hp.Count != int64(scfg.Bursts*scfg.BurstSize) {
				t.Errorf("stream %d histogram count %d, want %d", s, hp.Count, scfg.Bursts*scfg.BurstSize)
			}
		}
	}
	if perStream != scfg.Streams {
		t.Fatalf("snapshot has %d per-stream latency histograms, want %d", perStream, scfg.Streams)
	}
}
