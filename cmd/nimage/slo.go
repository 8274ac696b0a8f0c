package main

// The serve SLO observatory's CLI: sweep pressure levels with N
// concurrent request streams, score every layout against the latency
// SLOs, and print the attainment scorecard with the telemetry-overhead
// control. Optionally dumps the nimage.slo/v1 document and a per-stream
// Chrome trace of the baseline run.

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"nimage"
)

// validateSLOFlags rejects out-of-range SLO knobs up front, in the same
// reject-don't-clamp discipline as the serve flags.
func validateSLOFlags(streams int, pressures string) ([]int, error) {
	if streams < 1 {
		return nil, fmt.Errorf("-streams must be >= 1 (concurrent request streams), got %d", streams)
	}
	if strings.TrimSpace(pressures) == "" {
		return nimage.DefaultSLOPressures(), nil
	}
	var out []int
	for _, t := range strings.Split(pressures, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(t))
		if err != nil || p < 0 || p > 100 {
			return nil, fmt.Errorf("-pressures terms must be percentages between 0 and 100, got %q", t)
		}
		out = append(out, p)
	}
	return out, nil
}

// cmdSlo runs the pressure-sweep SLO scorecard over the serve workloads.
func cmdSlo(args []string) error {
	fs := flag.NewFlagSet("slo", flag.ExitOnError)
	name := fs.String("workload", "", "serve workload (empty = every serve workload)")
	strategies := fs.String("strategies", "", "comma-separated layouts (empty = every serve strategy)")
	streams := fs.Int("streams", 2, "concurrent closed-loop request streams")
	slo := fs.String("slo", "", "SLO targets as p<quantile>=<duration> terms, e.g. p50=100us,p99=2ms (empty = defaults)")
	pressures := fs.String("pressures", "", "comma-separated pressure levels in percent (empty = 0,30,70)")
	bursts := fs.Int("bursts", 5, "request bursts after startup (burst 0 is cold)")
	burst := fs.Int("burst", 24, "requests per burst per stream")
	budget := fs.Int("budget", 0, "resident-page budget in pages (0 = unlimited)")
	policy := fs.String("policy", "lru", "eviction policy: lru|clock")
	hotPct := fs.Int("hot-pct", 80, "percent of requests hitting the hot routes")
	seed := fs.Uint64("seed", 0, "request-stream seed (0 = default)")
	trace := fs.String("trace", "", "write the baseline run's per-stream Chrome trace JSON to this file")
	out := fs.String("o", "", "write the nimage.slo/v1 JSON document to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateServeFlags(0, *hotPct, *bursts, *burst, *budget); err != nil {
		return err
	}
	plist, err := validateSLOFlags(*streams, *pressures)
	if err != nil {
		return err
	}
	var targets []nimage.SLOTarget
	if *slo != "" {
		targets, err = nimage.ParseSLOTargets(*slo)
		if err != nil {
			return err
		}
	}
	var ws []nimage.Workload
	if *name != "" {
		w, err := nimage.WorkloadByName(*name)
		if err != nil {
			return err
		}
		ws = []nimage.Workload{w}
	}
	var strats []string
	if *strategies != "" {
		for _, s := range strings.Split(*strategies, ",") {
			strats = append(strats, strings.TrimSpace(s))
		}
	}

	cfg := nimage.DefaultEvalConfig()
	cfg.Builds = 1
	scfg := nimage.ServeConfig{
		Bursts:      *bursts,
		BurstSize:   *burst,
		CacheBudget: *budget,
		HotPct:      *hotPct,
		Seed:        *seed,
		Streams:     *streams,
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
	rep, err := h.SLOReport(ws, strats, scfg, targets, plist)
	if err != nil {
		return err
	}

	var labels []string
	for _, t := range rep.Targets {
		labels = append(labels, t.String())
	}
	title := fmt.Sprintf("SLO attainment (%d streams, targets %s)",
		rep.Streams, strings.Join(labels, " "))
	fmt.Print(nimage.SLOTableText(title, rep))
	fmt.Println()
	fmt.Print(nimage.SLOOverheadTableText(rep))

	if *out != "" {
		if err := writeWith(*out, func(f *os.File) error { return nimage.WriteSLOReport(f, rep) }); err != nil {
			return err
		}
		fmt.Printf("wrote SLO report to %s\n", *out)
	}
	if *trace != "" {
		if err := writeSLOChromeTrace(*trace, ws, h, scfg, plist); err != nil {
			return err
		}
		fmt.Printf("wrote per-stream Chrome trace to %s\n", *trace)
	}
	return nil
}

// writeSLOChromeTrace exports the baseline request trace of the first
// workload at the sweep's middle pressure as Chrome trace-event JSON.
func writeSLOChromeTrace(path string, ws []nimage.Workload, h *nimage.Harness, scfg nimage.ServeConfig, pressures []int) error {
	if len(ws) == 0 {
		ws = nimage.ServeWorkloads()
	}
	scfg.RecordRequests = true
	scfg.PressurePct = pressures[len(pressures)/2]
	outs, err := h.MeasureServe(ws[0], nimage.LayoutBaseline, scfg)
	if err != nil {
		return err
	}
	if outs[0].Requests == nil {
		return fmt.Errorf("serve run recorded no request trace")
	}
	return writeWith(path, func(f *os.File) error { return nimage.WriteRequestChromeTrace(f, outs[0].Requests) })
}
