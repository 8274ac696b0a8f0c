package textviz

import (
	"strings"
	"testing"

	"nimage/internal/obs"
)

func TestSLOTable(t *testing.T) {
	out := SLOTable("SLO attainment (2 streams)", &obs.SLOReport{Entries: []obs.SLOEntry{
		{Workload: "serve-api", Strategy: "identity", PressurePct: 30,
			Attainments: []obs.SLOAttainment{{Quantile: 0.99, BudgetNanos: 2e6, MeasuredNanos: 1.5e6,
				Violations: 0, Requests: 96, BudgetBurn: 0.4, Attained: true}}},
		{Workload: "serve-api", Strategy: "cu", PressurePct: 70,
			Attainments: []obs.SLOAttainment{{Quantile: 0.999, BudgetNanos: 10e6, MeasuredNanos: 14e6,
				Violations: 3, Requests: 96, BudgetBurn: 31.25, Attained: false}}},
	}})
	for _, want := range []string{
		"SLO attainment (2 streams)",
		"p99", "p99.9", "2ms", "10ms", "30%", "70%",
		"0/96", "3/96", "ok", "MISS", "burn",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestSLOTableEmpty(t *testing.T) {
	out := SLOTable("empty", &obs.SLOReport{})
	if !strings.Contains(out, "empty") || !strings.Contains(out, "workload") {
		t.Errorf("empty table lost title or header:\n%s", out)
	}
}

func TestSLOOverheadTable(t *testing.T) {
	out := SLOOverheadTable(&obs.SLOReport{Overhead: []obs.SLOOverhead{
		{Workload: "serve-api", Strategy: "identity",
			OnWallNanosPerReq: 1200, OffWallNanosPerReq: 1000,
			OverheadFrac: 0.2, SimIdentical: true},
		{Workload: "serve-cache", Strategy: "identity",
			OnWallNanosPerReq: 900, OffWallNanosPerReq: 1000,
			OverheadFrac: -0.1, SimIdentical: false},
	}})
	for _, want := range []string{
		"Telemetry overhead", "20.0%", "-10.0%", "identical", "DIVERGED",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("overhead table missing %q:\n%s", want, out)
		}
	}
}
