package main

import (
	"flag"
	"fmt"
	"os"

	"nimage"
)

// validateServeFlags rejects out-of-range serve knobs up front: the
// harness would silently substitute defaults for non-positive burst
// counts, percentages outside [0,100] have no meaning as reclaim or
// traffic fractions, and a negative page budget is neither unlimited
// (that's 0) nor a cap. Shared by `nimage serve` and `nimage slo`.
func validateServeFlags(pressure, hotPct, bursts, burst, budget int) error {
	if pressure < 0 || pressure > 100 {
		return fmt.Errorf("-pressure must be between 0 and 100 (percent of resident pages), got %d", pressure)
	}
	if hotPct < 0 || hotPct > 100 {
		return fmt.Errorf("-hot-pct must be between 0 and 100 (percent of requests), got %d", hotPct)
	}
	if bursts <= 0 {
		return fmt.Errorf("-bursts must be positive, got %d", bursts)
	}
	if burst <= 0 {
		return fmt.Errorf("-burst must be positive (requests per burst), got %d", burst)
	}
	if budget < 0 {
		return fmt.Errorf("-budget must be >= 0 (resident pages, 0 = unlimited), got %d", budget)
	}
	return nil
}

// cmdServe runs a serve-mode scenario: startup, then request bursts with
// page-cache pressure between them, printing the per-burst telemetry
// table and warm-burst aggregates.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	name := fs.String("workload", "serve-api", "serve workload: serve-api|serve-cache")
	strategy := fs.String("strategy", "", "serve an optimized layout (empty = regular build)")
	device := fs.String("device", "ssd", "storage device: ssd|nfs")
	bursts := fs.Int("bursts", 5, "request bursts after startup (burst 0 is cold)")
	burst := fs.Int("burst", 24, "requests per burst")
	pressure := fs.Int("pressure", 50, "percent of resident pages reclaimed between bursts")
	budget := fs.Int("budget", 0, "resident-page budget in pages (0 = unlimited)")
	policy := fs.String("policy", "lru", "eviction policy: lru|clock")
	hotPct := fs.Int("hot-pct", 80, "percent of requests hitting the hot routes")
	hotRoutes := fs.Int("hot-routes", 4, "size of the hot route set")
	seed := fs.Uint64("seed", 0, "request-stream seed (0 = default)")
	streams := fs.Int("streams", 1, "concurrent closed-loop request streams")
	report := fs.String("report", "", "write a nimage.report/v6 JSON document to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := nimage.WorkloadByName(*name)
	if err != nil {
		return err
	}
	if err := validateServeFlags(*pressure, *hotPct, *bursts, *burst, *budget); err != nil {
		return err
	}
	if *streams < 1 {
		return fmt.Errorf("-streams must be >= 1 (concurrent request streams), got %d", *streams)
	}
	dev, err := nimage.DeviceByName(*device)
	if err != nil {
		return err
	}

	cfg := nimage.DefaultEvalConfig()
	cfg.Builds = 1
	cfg.Observe = *report != ""
	cfg.Device = dev
	scfg := nimage.ServeConfig{
		Bursts:      *bursts,
		BurstSize:   *burst,
		PressurePct: *pressure,
		CacheBudget: *budget,
		HotPct:      *hotPct,
		HotRoutes:   *hotRoutes,
		Seed:        *seed,
		Streams:     *streams,
		// The report's SLO section needs the per-request traces.
		RecordRequests: *report != "",
	}
	switch *policy {
	case "lru":
		scfg.Policy = nimage.EvictLRU
	case "clock":
		scfg.Policy = nimage.EvictClock
	default:
		return fmt.Errorf("unknown eviction policy %q", *policy)
	}

	h := nimage.NewHarness(cfg)
	outs, err := h.MeasureServe(w, *strategy, scfg)
	if err != nil {
		return err
	}
	o := outs[0]

	fmt.Printf("%s (%s layout, %s, %d bursts × %d requests, %d%% pressure",
		w.Name, o.Strategy, cfg.Device.Name, len(o.Bursts), scfg.BurstSize, *pressure)
	if *streams > 1 {
		fmt.Printf(", %d streams", *streams)
	}
	if *budget > 0 {
		fmt.Printf(", budget %d pages (%s)", *budget, *policy)
	}
	fmt.Println(")")
	fmt.Printf("  startup (time to first response): %.3fms\n", o.StartupNanos/1e6)
	fmt.Print(nimage.BurstTableText("per-burst telemetry:", o.Bursts))
	fmt.Printf("  warm bursts: mean %.3fµs, p99 %.3fµs; run totals: %d pages evicted, %d re-faulted\n",
		o.WarmMeanNanos/1e3, o.WarmP99Nanos/1e3, o.EvictedPages, o.RefaultPages)

	if *report != "" {
		var strategies []string
		if *strategy != "" {
			strategies = []string{*strategy}
		}
		rep, err := h.ServeReport(w, strategies, scfg)
		if err != nil {
			return err
		}
		if err := writeWith(*report, func(f *os.File) error { return rep.WriteJSON(f) }); err != nil {
			return err
		}
		fmt.Printf("wrote serve report to %s\n", *report)
	}
	return nil
}
