package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound, the share
// of the parent's median by which a metric may worsen, is set for
// end-to-end metrics only.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics of an untraced run. The wall-clock ones are
// the simulator's own cost; the sim_* ones are the simulated outcome,
// which is deterministic for a seed and must not move under a pure
// speed-up or refactor.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.1},
	{Name: "sim_latency_ms", Unit: "ms", Better: "lower", Bound: 0.1},
	{Name: "sim_speedup", Unit: "x", Better: "higher", Bound: 0.1},
	{Name: "sim_faults", Unit: "count", Better: "lower", Bound: 0.1},
}

// cpuModules are the internal packages whose share of the traced phase's
// CPU profile is reported, plus the runtime bucket for samples outside
// them.
var cpuModules = []string{
	"vm", "osim", "image", "eval", "obs", "graal", "heap", "core",
	"profiler", "postproc", "ir", "murmur", runtimeModule,
}

// spanLayers maps the last name segment of an image pipeline stage span,
// or the name of a span the benchmark records, to its per-layer metric.
var spanLayers = map[string]string{
	"reachability":     "graal.reachability_frac",
	"inlining":         "graal.inlining_frac",
	"clinit":           "image.clinit_frac",
	"layout_text":      "image.layout_text_frac",
	"snapshot_heap":    "heap.snapshot_frac",
	"layout_heap":      "core.layout_heap_frac",
	"serialize":        "image.serialize_frac",
	"profiling_run":    "profiler.profiling_run_frac",
	"postprocess":      "postproc.postprocess_frac",
	"osim.DropCaches":  "osim.drop_caches_frac",
	"image.NewProcess": "image.new_process_frac",
	"vm.Run":           "vm.run_frac",
	"image.Close":      "image.close_frac",
}

// bakeSpans are the op spans of bake-micro; their time not covered by a
// stage span is image.pipeline_self_frac.
var bakeSpans = map[string]bool{"image.Build": true, "image.BuildOptimized": true}

// perLayer are the metrics of a traced run. Shares (frac) are of the
// traced phase's wall time or CPU time, or of simulated time; counts are
// per op. Every workload reports every metric: a layer a workload does
// not exercise reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, m := range cpuModules {
		defs = append(defs, metricDef{Name: m + ".cpu_share", Unit: "frac", Better: "lower"})
	}
	var spans []string
	for _, name := range spanLayers {
		spans = append(spans, name)
	}
	sort.Strings(spans)
	for _, name := range spans {
		defs = append(defs, metricDef{Name: name, Unit: "frac", Better: "lower"})
	}
	return append(defs,
		metricDef{Name: "image.pipeline_self_frac", Unit: "frac", Better: "lower"},
		metricDef{Name: "sim.cpu_frac", Unit: "frac", Better: "higher"},
		metricDef{Name: "sim.io_frac", Unit: "frac", Better: "lower"},
		metricDef{Name: "sim.queue_frac", Unit: "frac", Better: "lower"},
		metricDef{Name: "vm.steps_per_op", Unit: "count", Better: "lower"},
		metricDef{Name: "osim.major_faults_per_op", Unit: "count", Better: "lower"},
		metricDef{Name: "osim.minor_faults_per_op", Unit: "count", Better: "lower"},
		metricDef{Name: "osim.text_faults_per_op", Unit: "count", Better: "lower"},
		metricDef{Name: "osim.heap_faults_per_op", Unit: "count", Better: "lower"},
		metricDef{Name: "osim.faultaround_pages_per_op", Unit: "count", Better: "lower"},
		metricDef{Name: "osim.refaults_per_op", Unit: "count", Better: "lower"},
		metricDef{Name: "osim.evicted_pages_per_op", Unit: "count", Better: "lower"},
		metricDef{Name: "osim.cross_tenant_evict_frac", Unit: "frac", Better: "lower"},
		metricDef{Name: "core.code_match_frac", Unit: "frac", Better: "higher"},
		metricDef{Name: "core.heap_match_frac", Unit: "frac", Better: "higher"},
		metricDef{Name: "profiler.trace_words_per_op", Unit: "count", Better: "lower"},
		metricDef{Name: "mem.allocs_per_op", Unit: "count", Better: "lower"},
		metricDef{Name: "mem.alloc_kb_per_op", Unit: "KiB", Better: "lower"},
		metricDef{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower"},
	)
}()

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize turns a run's measurements into its reported metrics: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one.
func summarize(d *runData, traced bool) (*result, error) {
	vals := map[string]float64{}
	var err error
	defs := endToEnd
	if traced {
		defs = perLayer
		err = layerMetrics(d, vals)
	} else {
		err = endToEndMetrics(d, vals)
	}
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   d.failed == 0,
		Attempted: d.attempted,
		Failed:    d.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, m := range defs {
		v, ok := vals[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no finite value (%v)", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, nil
}

func endToEndMetrics(d *runData, vals map[string]float64) error {
	if d.attempted == 0 {
		return fmt.Errorf("no op ran")
	}
	scale := d.calibScale()
	vals["setup_s"] = median(d.setupSeconds) * scale
	var kindQuiet []float64
	for _, ms := range d.walls.byKind() {
		kindQuiet = append(kindQuiet, quantile(ms, quietQ))
	}
	typical, err := geomean(kindQuiet)
	if err != nil {
		return fmt.Errorf("op_ms: %w", err)
	}
	p90, err := nearestRank(d.walls.ms, 0.9)
	if err != nil {
		return err
	}
	vals["op_ms"] = typical * scale
	vals["op_p90_ms"] = p90 * scale
	vals["live_heap_mb"] = d.liveHeapMB
	lat, speedup, faults, err := simMetrics(d.outcomes)
	if err != nil {
		return err
	}
	vals["sim_latency_ms"] = lat / 1e6
	vals["sim_speedup"] = speedup
	vals["sim_faults"] = faults
	return nil
}

// calibScale converts the run's wall-clock times to the reference host
// (see calib.go).
func (d *runData) calibScale() float64 {
	return calibRefMs / quantile(d.calib, quietQ)
}

// simMetrics aggregates the outcomes of the optimized layouts: the
// geometric means of their simulated latency, of their speedup over the
// identity layout of the same group, and of their faults.
func simMetrics(outs []outcome) (latency, speedup, faults float64, err error) {
	base := map[string]float64{}
	for _, o := range outs {
		if o.identity {
			base[o.group] = o.speedNanos
		}
	}
	var lats, ups, fs []float64
	for _, o := range outs {
		if o.identity {
			continue
		}
		lats = append(lats, o.simNanos)
		fs = append(fs, o.faults)
		b, ok := base[o.group]
		if !ok {
			return 0, 0, 0, fmt.Errorf("%s has no identity-layout outcome in its group %s", o.key, o.group)
		}
		ups = append(ups, b/o.speedNanos)
	}
	if latency, err = geomean(lats); err != nil {
		return 0, 0, 0, fmt.Errorf("sim_latency_ms: %w", err)
	}
	if speedup, err = geomean(ups); err != nil {
		return 0, 0, 0, fmt.Errorf("sim_speedup: %w", err)
	}
	if faults, err = geomean(fs); err != nil {
		return 0, 0, 0, fmt.Errorf("sim_faults: %w", err)
	}
	return latency, speedup, faults, nil
}

// layerMetrics derives the per-layer metrics of a traced run from its
// spans, CPU profile, layer counters and allocation counts.
func layerMetrics(d *runData, vals map[string]float64) error {
	if d.tracedOps == 0 {
		return fmt.Errorf("no traced op ran")
	}
	var cpuTotal int64
	for _, ns := range d.cpu {
		cpuTotal += ns
	}
	for _, m := range cpuModules {
		vals[m+".cpu_share"] = ratio(float64(d.cpu[m]), float64(cpuTotal))
	}

	spanNs := map[string]float64{}
	var bakeNs, stageNs float64
	for _, s := range d.spans {
		name, stage := spanLayer(s.Name)
		if name != "" {
			spanNs[name] += float64(s.Dur)
		}
		if stage {
			stageNs += float64(s.Dur)
		}
		if bakeSpans[s.Name] {
			bakeNs += float64(s.Dur)
		}
	}
	wall := float64(d.elapsed.Nanoseconds())
	for _, name := range spanLayers {
		vals[name] = spanNs[name] / wall
	}
	vals["image.pipeline_self_frac"] = (bakeNs - stageNs) / wall

	l, ops := d.layers, float64(d.tracedOps)
	sim := l["sim.cpu_ns"] + l["sim.io_ns"] + l["sim.queue_ns"]
	vals["sim.cpu_frac"] = ratio(l["sim.cpu_ns"], sim)
	vals["sim.io_frac"] = ratio(l["sim.io_ns"], sim)
	vals["sim.queue_frac"] = ratio(l["sim.queue_ns"], sim)
	for _, k := range []string{"vm.steps", "osim.major_faults", "osim.minor_faults", "osim.text_faults",
		"osim.heap_faults", "osim.faultaround_pages", "osim.refaults", "osim.evicted_pages", "profiler.trace_words"} {
		vals[k+"_per_op"] = l[k] / ops
	}
	vals["osim.cross_tenant_evict_frac"] = ratio(l["osim.cross_tenant_evictions"], l["osim.evicted_pages"])
	vals["core.code_match_frac"] = ratio(l["core.code_matched"], l["core.code_profile"])
	vals["core.heap_match_frac"] = ratio(l["core.heap_matched"], l["core.heap_profile"])
	vals["mem.allocs_per_op"] = float64(d.mallocs) / ops
	vals["mem.alloc_kb_per_op"] = float64(d.allocBytes) / 1024 / ops
	vals["bench.trace_overhead_frac"] = traceOverhead(d.baseWalls.ms, d.walls.ms)
	return nil
}

// traceOverhead compares each op of the untraced baseline pass with the
// same op of the traced pass 0, which runs the same ops in the same order,
// and returns the median ratio minus one.
func traceOverhead(base, traced []float64) float64 {
	var ratios []float64
	for i := 0; i < len(base) && i < len(traced); i++ {
		ratios = append(ratios, traced[i]/base[i])
	}
	return median(ratios) - 1
}

// spanLayer returns the per-layer metric a span's time is charged to, and
// whether it is an image pipeline stage span.
func spanLayer(name string) (metric string, stage bool) {
	if strings.HasPrefix(name, "pipeline.") || strings.Count(name, ".") >= 2 {
		return spanLayers[name[strings.LastIndexByte(name, '.')+1:]], true
	}
	return spanLayers[name], false
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload does not
// exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeapMB collects garbage and returns the heap the process still holds.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
