package main

// The multi-tenant fleet observatory's CLI: serve N workload × strategy
// tenants concurrently from ONE shared page cache, then print each
// tenant's scorecard (latency, fault traffic, SLO attainment, isolation
// vs its solo run) and the cross-tenant interference matrix — who
// evicted whose pages. Optionally dumps the nimage.fleet/v1 document
// and a per-tenant Chrome trace.

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nimage"
)

// validateFleetFlags rejects out-of-range fleet knobs up front. A fleet
// of one is a serve run (`nimage serve` covers it), a non-positive
// budget makes "shared-cache arbitration" vacuous, and quotas are
// percentages of that budget.
func validateFleetFlags(tenants, quota, budget, bursts int) error {
	if tenants < 2 {
		return fmt.Errorf("-tenants must be >= 2 (a fleet of one is 'nimage serve'), got %d", tenants)
	}
	if quota < 0 || quota > 100 {
		return fmt.Errorf("-quota must be between 0 and 100 (percent of the shared budget), got %d", quota)
	}
	if budget <= 0 {
		return fmt.Errorf("-budget must be positive (shared resident-page budget), got %d", budget)
	}
	if bursts <= 0 {
		return fmt.Errorf("-bursts must be positive, got %d", bursts)
	}
	return nil
}

// fleetTenantMix builds n distinct workload × strategy pairs by cycling
// the workload list fastest and the strategy list per full workload
// cycle, so a 2-workload × 4-strategy default supports up to 8 tenants.
func fleetTenantMix(n, quota int, workloads, strategies []string) ([]nimage.TenantSpec, error) {
	if len(workloads) == 0 || len(strategies) == 0 {
		return nil, fmt.Errorf("empty workload or strategy list")
	}
	if max := len(workloads) * len(strategies); n > max {
		return nil, fmt.Errorf("-tenants %d exceeds the %d distinct workload×strategy pairs available", n, max)
	}
	specs := make([]nimage.TenantSpec, 0, n)
	for i := 0; i < n; i++ {
		specs = append(specs, nimage.TenantSpec{
			Workload: workloads[i%len(workloads)],
			Strategy: strategies[(i/len(workloads))%len(strategies)],
			QuotaPct: quota,
		})
	}
	return specs, nil
}

// cmdFleet runs the multi-tenant fleet observatory.
func cmdFleet(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	tenants := fs.Int("tenants", 2, "number of tenants sharing the page cache (>= 2)")
	workloads := fs.String("workloads", "", "comma-separated serve workloads to cycle (empty = every serve workload)")
	strategies := fs.String("strategies", "", "comma-separated layouts to cycle (empty = identity + every serve strategy)")
	budget := fs.Int("budget", 128, "shared resident-page budget in pages (must be positive)")
	quota := fs.Int("quota", 0, "per-tenant residency quota as percent of the budget (0 = none)")
	policy := fs.String("policy", "lru", "eviction policy: lru|clock")
	pressure := fs.Int("pressure", 40, "percent of resident pages reclaimed between bursts")
	bursts := fs.Int("bursts", 5, "request bursts after startup (burst 0 is cold)")
	burst := fs.Int("burst", 16, "requests per burst per tenant")
	hotPct := fs.Int("hot-pct", 80, "percent of requests hitting the hot routes")
	seed := fs.Uint64("seed", 0, "request-stream seed (0 = default)")
	trace := fs.String("trace", "", "write the fleet run's Chrome trace JSON to this file")
	out := fs.String("o", "", "write the nimage.fleet/v1 JSON document to this file")
	report := fs.String("report", "", "write a nimage.report/v6 JSON document (fleet section) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateFleetFlags(*tenants, *quota, *budget, *bursts); err != nil {
		return err
	}
	if err := validateServeFlags(*pressure, *hotPct, *bursts, *burst, *budget); err != nil {
		return err
	}

	wlist := splitList(*workloads)
	if len(wlist) == 0 {
		for _, w := range nimage.ServeWorkloads() {
			wlist = append(wlist, w.Name)
		}
	}
	slist := splitList(*strategies)
	if len(slist) == 0 {
		slist = append([]string{nimage.LayoutBaseline}, nimage.ServeStrategies()...)
	}
	specs, err := fleetTenantMix(*tenants, *quota, wlist, slist)
	if err != nil {
		return err
	}

	fcfg := nimage.FleetConfig{
		Tenants:     specs,
		Bursts:      *bursts,
		BurstSize:   *burst,
		PressurePct: *pressure,
		CacheBudget: *budget,
		HotPct:      *hotPct,
		Seed:        *seed,
		// The Chrome trace needs the per-request spans.
		RecordRequests: *trace != "",
	}
	switch *policy {
	case "lru":
		fcfg.Policy = nimage.EvictLRU
	case "clock":
		fcfg.Policy = nimage.EvictClock
	default:
		return fmt.Errorf("unknown eviction policy %q", *policy)
	}

	cfg := nimage.DefaultEvalConfig()
	cfg.Builds = 1
	// The report's Runs section needs the shared OS's obs snapshot.
	cfg.Observe = *report != ""
	h := nimage.NewHarness(cfg)
	fos, err := h.MeasureFleet(fcfg)
	if err != nil {
		return err
	}
	fo := fos[0]
	rep := fo.FleetReport()

	title := fmt.Sprintf("Fleet scorecard (%d tenants, budget %d pages, %s, %d%% pressure)",
		len(rep.Tenants), rep.CacheBudget, rep.Policy, rep.PressurePct)
	fmt.Print(nimage.FleetTableText(title, rep))
	fmt.Println()
	fmt.Print(nimage.FleetMatrixText(rep.EvictedBy, rep.TotalEvictions))

	if *out != "" {
		if err := writeWith(*out, func(f *os.File) error { return nimage.WriteFleetReport(f, rep) }); err != nil {
			return err
		}
		fmt.Printf("wrote fleet report to %s\n", *out)
	}
	if *trace != "" {
		if err := writeWith(*trace, func(f *os.File) error { return nimage.WriteFleetChromeTrace(f, rep, fo.Requests) }); err != nil {
			return err
		}
		fmt.Printf("wrote fleet Chrome trace to %s\n", *trace)
	}
	if *report != "" {
		doc, err := h.FleetServeReport(fcfg)
		if err != nil {
			return err
		}
		if err := writeWith(*report, func(f *os.File) error { return doc.WriteJSON(f) }); err != nil {
			return err
		}
		fmt.Printf("wrote fleet report document to %s\n", *report)
	}
	return nil
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}
