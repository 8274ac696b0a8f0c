package eval

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"nimage/internal/core"
	"nimage/internal/obs"
)

// The golden pins hash the simulated surface of fixed serve and fleet runs
// and compare against constants captured from a known-good build. Unlike the
// determinism tests, which compare runs within one build, they catch any
// refactor of the serve engine that moves a single simulated number. The
// constants were captured on linux/amd64; other architectures may fuse
// floating-point multiply-adds differently, so the pins only run there.
// If a change moves these numbers on purpose, regenerate the committed
// outputs and update the constants in the same change.

func goldenHash(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

func goldenHarness(t *testing.T) *Harness {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden pins were captured on amd64, running on %s", runtime.GOARCH)
	}
	cfg := DefaultConfig()
	cfg.Builds = 2
	return NewHarness(cfg)
}

func TestGoldenServePins(t *testing.T) {
	h := goldenHarness(t)
	single := DefaultServeConfig()
	single.Streams = 1
	single.PressurePct = 30
	single.RecordRequests = true
	streamed := DefaultServeConfig()
	streamed.Streams = 2
	streamed.CacheBudget = 48
	streamed.PressurePct = 70
	streamed.RecordRequests = true
	for _, tc := range []struct {
		workload string
		cfg      ServeConfig
		want     string
	}{
		{"serve-api", single, "3dda1026e1133d3405ee90c7df0aa7ca373608ffb5a6a6686faf0af45f208909"},
		{"serve-api", streamed, "e744d0bbcc8ab96310386d3f592065ef8c0737c6cb15a27a4052b4e5f76d5c9c"},
		{"serve-cache", single, "d00dc4a0656ef18f3c6a6dc725acbf64a6077099d468e6b5ccd9cd745f15486b"},
		{"serve-cache", streamed, "426c8244e16cdb479a6eaecbe08b1205cf522d8f806078502faf6acad5a2c531"},
	} {
		outs, err := h.MeasureServe(serveWorkload(t, tc.workload), "", tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		type pin struct {
			StartupNanos  float64
			Bursts        []BurstMeasure
			WarmMeanNanos float64
			WarmP99Nanos  float64
			EvictedPages  int64
			RefaultPages  int64
			Requests      *obs.RequestTrace
		}
		var pins []pin
		for _, o := range outs {
			if o.Requests == nil {
				t.Fatalf("%s: recording run carries no request trace", tc.workload)
			}
			pins = append(pins, pin{
				o.StartupNanos, o.Bursts, o.WarmMeanNanos, o.WarmP99Nanos,
				o.EvictedPages, o.RefaultPages, o.Requests,
			})
		}
		if got := goldenHash(t, pins); got != tc.want {
			t.Errorf("%s streams=%d pressure=%d: simulated surface hash %s, want %s",
				tc.workload, tc.cfg.Streams, tc.cfg.PressurePct, got, tc.want)
		}
	}
}

func TestGoldenFleetPins(t *testing.T) {
	h := goldenHarness(t)
	d := DefaultServeConfig()
	// The quota'd mix is the fleet benchmark's: four tenants under one
	// 192-page budget, each capped at 30% of it.
	quotad := FleetConfig{
		Tenants: []TenantSpec{
			{Workload: "serve-api", Strategy: LayoutBaseline, QuotaPct: 30},
			{Workload: "serve-api", Strategy: core.StrategyC3, QuotaPct: 30},
			{Workload: "serve-cache", Strategy: LayoutBaseline, QuotaPct: 30},
			{Workload: "serve-cache", Strategy: core.StrategyCombined, QuotaPct: 30},
		},
		Bursts: 12, BurstSize: d.BurstSize, PressurePct: 30, CacheBudget: 192,
		HotPct: d.HotPct, HotRoutes: d.HotRoutes,
	}
	open := FleetConfig{
		Tenants: []TenantSpec{
			{Workload: "serve-api", Strategy: core.StrategyCU},
			{Workload: "serve-cache", Strategy: LayoutBaseline},
		},
		PressurePct: 40, CacheBudget: 96,
	}
	for _, tc := range []struct {
		name string
		cfg  FleetConfig
		want string
	}{
		{"quota", quotad, "f5cb0c1b987c3d7a8fdd17c2b181bf78fd7a55c9e50ee6b91672e5859e4f654b"},
		{"open", open, "ee3224ff91458e8748fc4f88dbddc44a931123411efbeee6358675cf5037f2c4"},
	} {
		outs, err := h.MeasureFleet(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		type pin struct {
			Tenants          []*TenantOutcome
			EvictedBy        [][]int64
			TotalEvictions   int64
			TotalFaults      int64
			TotalMajorFaults int64
			TotalRefaults    int64
			TotalIONanos     int64
			ResidentPages    int
		}
		var pins []pin
		for _, fo := range outs {
			pins = append(pins, pin{
				fo.Tenants, fo.EvictedBy, fo.TotalEvictions, fo.TotalFaults,
				fo.TotalMajorFaults, fo.TotalRefaults, fo.TotalIONanos, fo.ResidentPages,
			})
		}
		if got := goldenHash(t, pins); got != tc.want {
			t.Errorf("%s fleet: simulated surface hash %s, want %s", tc.name, got, tc.want)
		}
	}
}
