package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smokeScale runs every workload at 1/50 of each of its dimensions.
const smokeScale = 50

// TestWorkloadsSmoke runs one pass of every workload at 1/50 scale: no op
// may fail, and the outcomes must yield the simulated metrics.
func TestWorkloadsSmoke(t *testing.T) {
	start := time.Now()
	for _, spec := range workloadSpecs {
		d, err := measure(spec, config{seed: 7, seconds: 1e-3, scale: smokeScale, setups: 1})
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		if d.attempted == 0 || d.failed != 0 || len(d.outcomes) == 0 {
			t.Errorf("%s: %d ops, %d failed (%v), %d outcomes", spec.name, d.attempted, d.failed, d.failures, len(d.outcomes))
		}
		lat, speedup, faults, err := simMetrics(d.outcomes)
		if err != nil || !(lat > 0 && speedup > 0 && faults > 0) {
			t.Errorf("%s: sim metrics %g %g %g, %v", spec.name, lat, speedup, faults, err)
		}
		if !(d.liveHeapMB > 0) || len(d.setupSeconds) != 1 || len(d.calib) == 0 {
			t.Errorf("%s: live heap %g MB, %d set-ups, %d calibrations", spec.name, d.liveHeapMB, len(d.setupSeconds), len(d.calib))
		}
	}
	t.Logf("four workloads at 1/%d scale in %v", smokeScale, time.Since(start))
}

// TestTracedRunSmoke runs the traced variant of the cheapest workload: the
// traced pass must reproduce the untraced pass's outcomes, and the run
// must write its spans and CPU profile and report every per-layer metric.
func TestTracedRunSmoke(t *testing.T) {
	spec, err := workloadByName("start-awfy")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	d, err := measure(spec, config{seed: 7, seconds: 0.2, trace: true, traceDir: dir, scale: smokeScale, setups: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.failed != 0 || d.tracedOps == 0 {
		t.Fatalf("%d traced ops, %d failed: %v", d.tracedOps, d.failed, d.failures)
	}
	res, err := summarize(d, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), len(perLayer))
	}
	if v := res.Metrics["vm.run_frac"].Value; !(v > 0 && v <= 1) || math.IsNaN(v) {
		t.Errorf("vm.run_frac = %g, want a share in (0, 1]", v)
	}
	for _, f := range []string{"spans.jsonl", "cpu.pprof"} {
		if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
			t.Errorf("%s not written: %v", f, err)
		}
	}
}
