package eval

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nimage/internal/core"
	"nimage/internal/obs"
)

func fleetTestConfig() FleetConfig {
	return FleetConfig{
		Tenants: []TenantSpec{
			{Workload: "serve-api"},
			{Workload: "serve-cache"},
		},
		Bursts: 3, BurstSize: 8, PressurePct: 40, CacheBudget: 96,
		HotPct: 80, HotRoutes: 3, Seed: 7,
	}
}

// TestMeasureFleetPartition is the fleet observability contract: the
// per-tenant counters partition the OS totals exactly, and the
// interference matrix partitions the evictions exactly — at the eval
// layer, on a real two-tenant run under a shared budget.
func TestMeasureFleetPartition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	h := NewHarness(cfg)
	outs, err := h.MeasureFleet(fleetTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("got %d outcomes, want 1 per build", len(outs))
	}
	fo := outs[0]
	if len(fo.Tenants) != 2 {
		t.Fatalf("got %d tenants, want 2", len(fo.Tenants))
	}
	var faults, major, refaults, ioNanos, resident int64
	for i, tn := range fo.Tenants {
		if tn.Tenant != i || tn.Counters.Tenant != i {
			t.Errorf("tenant %d carries ids %d/%d", i, tn.Tenant, tn.Counters.Tenant)
		}
		if tn.StartupNanos <= 0 {
			t.Errorf("tenant %d: startup nanos %v", i, tn.StartupNanos)
		}
		if len(tn.Bursts) != 3 || len(tn.Resident) != 3 {
			t.Fatalf("tenant %d: %d bursts, %d residency samples", i, len(tn.Bursts), len(tn.Resident))
		}
		for b, bm := range tn.Bursts {
			if bm.Burst != b || bm.Requests != 8 {
				t.Errorf("tenant %d burst %d: index %d requests %d", i, b, bm.Burst, bm.Requests)
			}
		}
		if tn.WarmMeanNanos <= 0 || tn.WarmP99Nanos < tn.WarmMeanNanos {
			t.Errorf("tenant %d: warm aggregates mean=%v p99=%v", i, tn.WarmMeanNanos, tn.WarmP99Nanos)
		}
		if len(tn.Attainment) == 0 {
			t.Errorf("tenant %d: no SLO attainment", i)
		}
		if tn.SoloWarmMeanNanos <= 0 || tn.IsolationLatency <= 0 || tn.IsolationRefault <= 0 {
			t.Errorf("tenant %d: isolation factors solo=%v lat=%v refault=%v",
				i, tn.SoloWarmMeanNanos, tn.IsolationLatency, tn.IsolationRefault)
		}
		faults += tn.Counters.Faults
		major += tn.Counters.MajorFaults
		refaults += tn.Counters.Refaults
		ioNanos += tn.Counters.IONanos
		resident += tn.ResidentPages
	}
	// Tenants sorted canonically regardless of caller order.
	if fo.Tenants[0].Spec.Workload != "serve-api" || fo.Tenants[1].Spec.Workload != "serve-cache" {
		t.Errorf("tenant order not canonical: %s, %s",
			fo.Tenants[0].Spec.Workload, fo.Tenants[1].Spec.Workload)
	}
	// Charge-side partition: per-tenant counters sum to the OS totals.
	if faults != fo.TotalFaults || major != fo.TotalMajorFaults ||
		refaults != fo.TotalRefaults || ioNanos != fo.TotalIONanos {
		t.Errorf("tenant counter sums %d/%d/%d/%d != fleet totals %d/%d/%d/%d",
			faults, major, refaults, ioNanos,
			fo.TotalFaults, fo.TotalMajorFaults, fo.TotalRefaults, fo.TotalIONanos)
	}
	if refaults == 0 {
		t.Error("shared budget produced no re-faults; the partition check is vacuous")
	}
	// Owner-side partition: tenant residency sums to the OS residency.
	if resident != int64(fo.ResidentPages) {
		t.Errorf("tenant residency sums to %d, OS holds %d", resident, fo.ResidentPages)
	}
	// Interference matrix: exact partition of the eviction totals.
	if len(fo.EvictedBy) != 3 {
		t.Fatalf("matrix has %d rows, want 3", len(fo.EvictedBy))
	}
	var total int64
	colSums := make([]int64, 3)
	for i, row := range fo.EvictedBy {
		if len(row) != 3 {
			t.Fatalf("matrix row %d has %d columns", i, len(row))
		}
		for j, v := range row {
			if v < 0 {
				t.Fatalf("negative matrix cell [%d][%d]", i, j)
			}
			total += v
			colSums[j] += v
		}
	}
	if total != fo.TotalEvictions || total == 0 {
		t.Errorf("matrix sums to %d evictions, total %d", total, fo.TotalEvictions)
	}
	if colSums[0] != 0 {
		t.Errorf("untenanted column holds %d evictions", colSums[0])
	}
	for j, tn := range fo.Tenants {
		if colSums[j+1] != tn.EvictedPages {
			t.Errorf("tenant %d column sums to %d, tenant evicted %d", j, colSums[j+1], tn.EvictedPages)
		}
	}
	// Under a shared budget the tenants must actually interfere.
	if fo.EvictedBy[1][2] == 0 && fo.EvictedBy[2][1] == 0 {
		t.Error("no cross-tenant evictions under a shared budget")
	}
	// The outcome converts to a valid fleet document: the codec validator
	// re-checks every partition invariant on the real numbers.
	var buf bytes.Buffer
	if err := obs.WriteFleetReport(&buf, fo.FleetReport()); err != nil {
		t.Fatalf("outcome does not serialize: %v", err)
	}
	if _, err := obs.ReadFleetReport(&buf); err != nil {
		t.Fatalf("outcome does not validate: %v", err)
	}
}

// TestFleetSingleTenantMatchesServe is the back-compat contract: a
// one-tenant fleet without quota reproduces MeasureServe bit for bit —
// fleet concurrency, tenancy tagging and the fleet clock are all exactly
// the serve protocol when there is nobody to share with.
func TestFleetSingleTenantMatchesServe(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	h := NewHarness(cfg)
	fcfg := FleetConfig{
		Tenants: []TenantSpec{{Workload: "serve-api"}},
		Bursts:  3, BurstSize: 8, PressurePct: 60,
		HotPct: 80, HotRoutes: 3, Seed: 7,
	}
	fouts, err := h.MeasureFleet(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	souts, err := h.MeasureServe(serveWorkload(t, "serve-api"), "", fcfg.serveConfig())
	if err != nil {
		t.Fatal(err)
	}
	tn := fouts[0].Tenants[0]
	so := souts[0]
	serveView := &ServeOutcome{
		StartupNanos:  tn.StartupNanos,
		Bursts:        tn.Bursts,
		WarmMeanNanos: tn.WarmMeanNanos,
		WarmP99Nanos:  tn.WarmP99Nanos,
		EvictedPages:  tn.EvictedPages,
		RefaultPages:  tn.RefaultPages,
	}
	probe := &ServeOutcome{
		StartupNanos:  so.StartupNanos,
		Bursts:        so.Bursts,
		WarmMeanNanos: so.WarmMeanNanos,
		WarmP99Nanos:  so.WarmP99Nanos,
		EvictedPages:  so.EvictedPages,
		RefaultPages:  so.RefaultPages,
	}
	if !sameSimOutcome(serveView, probe) {
		a, _ := json.Marshal(serveView)
		b, _ := json.Marshal(probe)
		t.Fatalf("one-tenant fleet diverges from MeasureServe:\nfleet: %s\nserve: %s", a, b)
	}
	// The solo baseline of a one-tenant fleet is the run itself.
	if tn.IsolationLatency != 1 || tn.IsolationRefault != 1 {
		t.Errorf("one-tenant isolation factors %v/%v, want 1/1",
			tn.IsolationLatency, tn.IsolationRefault)
	}
}

// TestFleetDeterministic: fleet outcomes and their journal bytes are
// identical across worker counts, tenant-slice orderings and repeats —
// the fleet extension of the scheduler's determinism contract.
func TestFleetDeterministic(t *testing.T) {
	base := fleetTestConfig()
	base.RecordRequests = true
	reversed := base
	reversed.Tenants = []TenantSpec{base.Tenants[1], base.Tenants[0]}
	var prev []byte
	for i, tc := range []struct {
		workers int
		fcfg    FleetConfig
	}{
		{1, base},
		{4, base},
		{4, reversed},
		{4, reversed}, // repeat: fresh harness, same bytes
	} {
		cfg := DefaultConfig()
		cfg.Builds = 2
		cfg.Workers = tc.workers
		h := NewHarness(cfg)
		outs, err := h.MeasureFleet(tc.fcfg)
		if err != nil {
			t.Fatal(err)
		}
		journal, err := json.Marshal(outs)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !bytes.Equal(prev, journal) {
			t.Fatalf("run %d: fleet journal bytes diverged", i)
		}
		prev = journal
	}
}

// TestFleetQuotaCapsTenant: a residency quota caps the quota'd tenant at
// its share of the budget and the overflow evictions stay on the
// tenant's own diagonal cell.
func TestFleetQuotaCapsTenant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	h := NewHarness(cfg)
	fcfg := fleetTestConfig()
	fcfg.Tenants[0].QuotaPct = 25
	outs, err := h.MeasureFleet(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	fo := outs[0]
	quota := fcfg.CacheBudget * 25 / 100
	var quotad *TenantOutcome
	for _, tn := range fo.Tenants {
		if tn.Spec.QuotaPct == 25 {
			quotad = tn
		}
	}
	if quotad == nil {
		t.Fatal("quota'd tenant missing from outcome")
	}
	if quotad.QuotaPages != quota {
		t.Errorf("resolved quota %d pages, want %d", quotad.QuotaPages, quota)
	}
	if quotad.ResidentPages > int64(quota) {
		t.Errorf("quota'd tenant holds %d resident pages over quota %d",
			quotad.ResidentPages, quota)
	}
	for _, r := range quotad.Resident {
		if r > int64(quota) {
			t.Errorf("quota'd tenant held %d resident pages mid-run over quota %d", r, quota)
		}
	}
	// Quota overflow self-evicts: the diagonal cell is populated.
	i := quotad.Tenant
	if fo.EvictedBy[i+1][i+1] == 0 {
		t.Error("quota enforcement recorded no self-evictions")
	}
}

// TestMeasureFleetRejects: reject-don't-clamp at the eval layer.
func TestMeasureFleetRejects(t *testing.T) {
	h := NewHarness(DefaultConfig())
	for name, fcfg := range map[string]FleetConfig{
		"no tenants": {},
		"negative quota": {Tenants: []TenantSpec{
			{Workload: "serve-api", QuotaPct: -1}}},
		"quota over 100": {Tenants: []TenantSpec{
			{Workload: "serve-api", QuotaPct: 101}}},
		"duplicate pair": {Tenants: []TenantSpec{
			{Workload: "serve-api", Strategy: "c3"},
			{Workload: "serve-api", Strategy: "c3"}}},
		"unknown workload": {Tenants: []TenantSpec{
			{Workload: "no-such-service"}}},
		"non-serve workload": {Tenants: []TenantSpec{
			{Workload: "richards"}}},
	} {
		if _, err := h.MeasureFleet(fcfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// "identity" and "" are the same tenant: duplicates after
	// normalization are rejected too.
	if _, err := h.MeasureFleet(FleetConfig{Tenants: []TenantSpec{
		{Workload: "serve-api"},
		{Workload: "serve-api", Strategy: LayoutBaseline},
	}}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("normalized duplicate accepted: %v", err)
	}
}

// TestFleetMemoized: same canonical config (even differently ordered)
// returns the identical cached slice.
func TestFleetMemoized(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	h := NewHarness(cfg)
	fcfg := fleetTestConfig()
	a, err := h.MeasureFleet(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	reordered := fcfg
	reordered.Tenants = []TenantSpec{fcfg.Tenants[1], fcfg.Tenants[0]}
	b, err := h.MeasureFleet(reordered)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("reordered tenants missed the memoization cache")
	}
}

// TestFleetGraphTenantsAttain is the acceptance contract of the fleet
// figure: under one shared budget, tenants running the graph-derived
// serve layouts attain at least as many SLO cells as the cu+heap path
// tenant — residency-aware layouts survive contention better.
func TestFleetGraphTenantsAttain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	h := NewHarness(cfg)
	fcfg := FleetConfig{
		Tenants: []TenantSpec{
			{Workload: "serve-api", Strategy: core.StrategyCombined},
			{Workload: "serve-api", Strategy: core.StrategyC3},
			{Workload: "serve-cache", Strategy: core.StrategyExtTSP},
		},
		Bursts: 3, BurstSize: 8, PressurePct: 40, CacheBudget: 128,
		HotPct: 80, HotRoutes: 3, Seed: 7,
	}
	outs, err := h.MeasureFleet(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	attained := func(tn *TenantOutcome) int {
		n := 0
		for _, a := range tn.Attainment {
			if a.Attained {
				n++
			}
		}
		return n
	}
	var combined int
	found := false
	for _, tn := range outs[0].Tenants {
		if tn.Spec.Strategy == core.StrategyCombined {
			combined = attained(tn)
			found = true
		}
	}
	if !found {
		t.Fatal("cu+heap path tenant missing")
	}
	for _, tn := range outs[0].Tenants {
		if tn.Spec.Strategy == core.StrategyCombined {
			continue
		}
		if got := attained(tn); got < combined {
			t.Errorf("tenant %s/%s attains %d SLO cells, cu+heap path attains %d",
				tn.Spec.Workload, tn.Spec.Strategy, got, combined)
		}
	}
}

// TestFleetServeReport: the consolidated document wraps a fleet run as
// schema v6 — one entry per tenant, the shared OS's snapshot on the
// first entry only, and the nimage.fleet/v1 scorecard in Fleet.
func TestFleetServeReport(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	cfg.Observe = true
	h := NewHarness(cfg)
	rep, err := h.FleetServeReport(fleetTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ReportSchema {
		t.Fatalf("schema = %q, want %q", rep.Schema, ReportSchema)
	}
	if rep.Fleet == nil || rep.Fleet.Schema != obs.FleetSchema {
		t.Fatalf("fleet section missing or mis-schemed: %+v", rep.Fleet)
	}
	if len(rep.Entries) != 2 {
		t.Fatalf("got %d entries, want one per tenant", len(rep.Entries))
	}
	for i, e := range rep.Entries {
		if !e.Service || e.Strategy != "" {
			t.Errorf("entry %d: service=%v strategy=%q", i, e.Service, e.Strategy)
		}
		if want := i == 0; (len(e.Runs) == 1) != want {
			t.Errorf("entry %d carries %d snapshots; the shared snapshot belongs to entry 0 only", i, len(e.Runs))
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// The embedded fleet section must survive the codec's validator.
	var doc struct {
		Fleet json.RawMessage `json:"fleet"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ReadFleetReport(bytes.NewReader(doc.Fleet)); err != nil {
		t.Errorf("embedded fleet section rejected: %v", err)
	}
}
