package eval

import (
	"bytes"
	"testing"

	"nimage/internal/obs"
	"nimage/internal/workloads"
)

func TestSLOReport(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	h := NewHarness(cfg)
	w := serveWorkload(t, "serve-api")
	scfg := ServeConfig{
		Bursts: 2, BurstSize: 4, Streams: 2,
		HotPct: 80, HotRoutes: 3, Seed: 7,
	}
	strategies := []string{"cu"}
	pressures := []int{0, 70}
	rep, err := h.SLOReport([]workloads.Workload{w}, strategies, scfg, nil, pressures)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != obs.SLOSchema || rep.Streams != 2 {
		t.Fatalf("schema=%q streams=%d", rep.Schema, rep.Streams)
	}
	// One entry per pressure x workload x (baseline + strategies).
	want := len(pressures) * 1 * (1 + len(strategies))
	if len(rep.Entries) != want {
		t.Fatalf("got %d entries, want %d", len(rep.Entries), want)
	}
	warmPerBuild := (scfg.Bursts - 1) * scfg.BurstSize * scfg.Streams
	for _, e := range rep.Entries {
		if e.Workload != w.Name || e.Streams != 2 {
			t.Errorf("entry %+v", e)
		}
		if e.Requests != warmPerBuild*cfg.Builds {
			t.Errorf("entry %s@%d%% scored %d requests, want %d",
				e.Strategy, e.PressurePct, e.Requests, warmPerBuild*cfg.Builds)
		}
		if len(e.Attainments) != len(obs.DefaultSLOTargets()) {
			t.Errorf("entry %s@%d%%: %d attainments", e.Strategy, e.PressurePct, len(e.Attainments))
		}
		for _, a := range e.Attainments {
			if a.Requests != e.Requests {
				t.Errorf("attainment scored %d requests, entry has %d", a.Requests, e.Requests)
			}
		}
	}
	// The overhead control rides along, one per workload, sim-identical.
	if len(rep.Overhead) != 1 {
		t.Fatalf("got %d overhead rows, want 1", len(rep.Overhead))
	}
	oh := rep.Overhead[0]
	if !oh.SimIdentical {
		t.Error("telemetry on/off control produced divergent simulated outcomes")
	}
	if oh.OnWallNanosPerReq <= 0 || oh.OffWallNanosPerReq <= 0 {
		t.Errorf("overhead wall nanos on=%v off=%v", oh.OnWallNanosPerReq, oh.OffWallNanosPerReq)
	}
	// The document round-trips through its own codec.
	var buf bytes.Buffer
	if err := obs.WriteSLOReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ReadSLOReport(&buf); err != nil {
		t.Fatalf("SLOReport emitted an invalid document: %v", err)
	}
}

func TestServeTelemetryOverheadRejectsNonServe(t *testing.T) {
	h := NewHarness(DefaultConfig())
	w, err := workloads.ByName("Json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.ServeTelemetryOverhead(w, "", ServeConfig{}, 1); err == nil {
		t.Fatal("accepted a workload without a serve spec")
	}
}
