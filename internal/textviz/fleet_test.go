package textviz

import (
	"strings"
	"testing"

	"nimage/internal/obs"
)

func TestFleetTable(t *testing.T) {
	out := FleetTable("Fleet scorecard (2 tenants, budget 96)", &obs.FleetReport{Tenants: []obs.FleetTenant{
		{Tenant: 0, Workload: "serve-api", Strategy: "cu+heap path",
			StartupNanos: 4.2e6, WarmMeanNanos: 1.8e5, WarmP99Nanos: 9.1e5,
			MajorFaults: 120, Refaults: 30, EvictedPages: 5, ResidentPages: 44,
			IsolationLatency: 1.2, IsolationRefault: 2.82},
		{Tenant: 1, Workload: "serve-cache", Strategy: "c3", QuotaPages: 48,
			StartupNanos: 3.9e6, WarmMeanNanos: 1.2e5, WarmP99Nanos: 6.4e5,
			MajorFaults: 90, Refaults: 18, EvictedPages: 7, ResidentPages: 48},
	}})
	for _, want := range []string{
		"Fleet scorecard (2 tenants, budget 96)",
		"serve-api", "serve-cache", "cu+heap path", "c3",
		"48p", "1.20x", "2.82x",
		"iso(lat)", "iso(ref)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// No quota and no solo baseline render as "-".
	if !strings.Contains(out, " - ") {
		t.Errorf("missing placeholder for absent quota/isolation:\n%s", out)
	}
}

func TestFleetTableEmpty(t *testing.T) {
	out := FleetTable("empty", &obs.FleetReport{})
	if !strings.Contains(out, "empty") || !strings.Contains(out, "workload") {
		t.Errorf("empty table lost title or header:\n%s", out)
	}
}

func TestFleetMatrix(t *testing.T) {
	out := FleetMatrix([][]int64{
		{0, 2, 3},
		{0, 1, 2},
		{0, 2, 2},
	}, 12)
	for _, want := range []string{
		"12 evictions total",
		"evictor\\own", "ext", "t00", "t01", "row sum", "col sum",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("matrix missing %q:\n%s", want, out)
		}
	}
	// Margin sums: col sums 5 and 7, ext row sum 5.
	for _, want := range []string{"        5", "        7"} {
		if !strings.Contains(out, want) {
			t.Errorf("matrix missing margin %q:\n%s", want, out)
		}
	}
	if FleetMatrix(nil, 0) != "" {
		t.Error("nil matrix should render empty")
	}
}
