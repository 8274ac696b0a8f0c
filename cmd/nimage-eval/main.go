// Command nimage-eval regenerates the paper's evaluation (Sec. 7): the
// page-fault reductions of Figures 2 and 3, the execution-time speedups of
// Figures 4 and 5, the profiling-overhead table of Sec. 7.4, the
// accessed-object fraction of Sec. 7.2, and the Fig. 6 page-grid
// visualization. Results are printed as ASCII charts and written as CSV
// files into the output directory. The geomean factors of every figure are
// additionally collected into a benchmark-baseline document
// (BENCH_baseline.json), the "serve" experiment writes its own slice —
// warm-burst latency, re-fault, and layout-scorecard geomeans — to
// output/BENCH_serve.json, and the "report" experiment regenerates the
// consolidated observability document (output/report.json, not committed).
//
// The "fleet" experiment is the multi-tenant observatory: mixed-strategy
// tenant fleets share ONE page cache at each tenant count, and the
// per-strategy isolation-factor geomeans and fairness spreads land in
// output/BENCH_fleet.json with the who-evicted-whom matrices in
// output/fleet-interference.csv.
//
// Usage:
//
//	nimage-eval [-figure all|2|3|4|5|overhead|accessed|6|serve|fleet|report] [-workloads Bounce,micronaut]
//	            [-builds N] [-device ssd|nfs] [-out output]
//	            [-tenants 2,4] [-budget PAGES] [-quota PCT] [-bursts N]
//	            [-cpuprofile FILE] [-memprofile FILE]
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the
// simulator itself (`go tool pprof` reads them); they change no output.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"nimage/internal/core"
	"nimage/internal/eval"
	"nimage/internal/obs"
	"nimage/internal/osim"
	"nimage/internal/textviz"
	"nimage/internal/workloads"
)

// benchSchema identifies the benchmark-baseline document format.
const benchSchema = "nimage.bench/v1"

// benchDoc is the committed benchmark baseline: the per-strategy geometric
// means of every figure, so regressions in the headline factors are a JSON
// diff away.
type benchDoc struct {
	Schema  string                        `json:"schema"`
	Device  string                        `json:"device"`
	Builds  int                           `json:"builds"`
	Figures map[string]map[string]float64 `json:"figures"`
}

// slice returns the document restricted to the figures whose key starts
// with prefix, labelled with the build count they were measured at.
func (d benchDoc) slice(prefix string, builds int) benchDoc {
	out := benchDoc{Schema: d.Schema, Device: d.Device, Builds: builds,
		Figures: map[string]map[string]float64{}}
	for key, geo := range d.Figures {
		if strings.HasPrefix(key, prefix) {
			out.Figures[key] = geo
		}
	}
	return out
}

// writeDoc writes v to path as one JSON document (obs.WriteDoc).
func writeDoc(path string, v any) error {
	var buf bytes.Buffer
	if err := obs.WriteDoc(&buf, v); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// writeBench writes a benchmark document to path and reports it.
func writeBench(path string, d benchDoc) error {
	if err := writeDoc(path, d); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d figures)\n", path, len(d.Figures))
	return nil
}

// parseWorkloadFilter resolves a comma-separated -workloads value; an empty
// value means "no filter" (nil set).
func parseWorkloadFilter(list string) (map[string]bool, error) {
	if list == "" {
		return nil, nil
	}
	keep := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, err := workloads.ByName(name); err != nil {
			return nil, err
		}
		keep[name] = true
	}
	return keep, nil
}

// filterWorkloads restricts a figure's workload set to the -workloads
// selection. A nil filter keeps the set unchanged.
func filterWorkloads(ws []workloads.Workload, keep map[string]bool) []workloads.Workload {
	if keep == nil {
		return ws
	}
	var out []workloads.Workload
	for _, w := range ws {
		if keep[w.Name] {
			out = append(out, w)
		}
	}
	return out
}

// parseFleetTenants resolves the -tenants list of the fleet experiment.
// Each term is a tenant count; a fleet of one is a serve run, so counts
// below 2 are rejected rather than clamped.
func parseFleetTenants(list string) ([]int, error) {
	var out []int
	for _, t := range strings.Split(list, ",") {
		t = strings.TrimSpace(t)
		if t == "" {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(t, "%d", &n); err != nil || fmt.Sprint(n) != t {
			return nil, fmt.Errorf("-tenants terms must be integers, got %q", t)
		}
		if n < 2 {
			return nil, fmt.Errorf("-tenants terms must be >= 2 (a fleet of one is a serve run), got %d", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-tenants must name at least one tenant count")
	}
	return out, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nimage-eval:", err)
		os.Exit(1)
	}
}

// startProfiles starts a CPU profile into cpuPath and returns the function
// that stops it and writes a heap profile into memPath. The heap profile
// is taken after a garbage collection, so its figures are current; its
// alloc_space and alloc_objects count every allocation of the run. An
// empty path skips that profile.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			return nil, errors.Join(err, cpu.Close())
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memPath != "" {
			runtime.GC()
			f, err := os.Create(memPath)
			if err != nil {
				return errors.Join(append(errs, err)...)
			}
			errs = append(errs, pprof.WriteHeapProfile(f), f.Close())
		}
		return errors.Join(errs...)
	}, nil
}

// fleetStrategies are the tenant layouts of the fleet experiment: the
// paper's combined layout and the two graph layouts.
var fleetStrategies = []string{core.StrategyCombined, core.StrategyC3, core.StrategyExtTSP}

// figureNames are the values -figure accepts: every experiment, or all.
var figureNames = []string{"all", "2", "3", "4", "5", "overhead", "accessed", "6", "serve", "fleet", "report"}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("nimage-eval", flag.ContinueOnError)
	figure := fs.String("figure", "all", "which experiment: "+strings.Join(figureNames, "|"))
	builds := fs.Int("builds", 3, "images per strategy (paper: 10)")
	device := fs.String("device", "ssd", "storage device: ssd|nfs")
	out := fs.String("out", "output", "output directory for CSV/PPM files")
	bench := fs.String("bench", "BENCH_baseline.json", "benchmark-baseline JSON path (empty = skip)")
	viz := fs.String("viz-workload", "Bounce", "workload of the Fig. 6 visualization")
	workers := fs.Int("workers", 0, "concurrent build+measure tasks (0 = GOMAXPROCS; results are identical for every count)")
	wfilter := fs.String("workloads", "", "comma-separated workload filter applied to every experiment (empty = full sets)")
	fleetTenants := fs.String("tenants", "2,4", "comma-separated tenant counts of the fleet experiment (each >= 2)")
	fleetBudget := fs.Int("budget", 192, "shared resident-page budget of the fleet experiment")
	fleetQuota := fs.Int("quota", 0, "per-tenant residency quota of the fleet experiment, percent of the budget (0 = none)")
	fleetBursts := fs.Int("bursts", 4, "request bursts per tenant in the fleet experiment")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (empty = none)")
	memProfile := fs.String("memprofile", "", "write a heap profile, taken when the run ends, to this file (empty = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// An unknown figure would match no experiment and run nothing.
	if !slices.Contains(figureNames, *figure) {
		return fmt.Errorf("-figure must be one of %s, got %q", strings.Join(figureNames, "|"), *figure)
	}
	// Reject out-of-range sizing instead of clamping: zero builds would
	// silently measure nothing, and a negative worker count is neither a
	// cap nor the GOMAXPROCS default (that's 0).
	if *builds < 1 {
		return fmt.Errorf("-builds must be >= 1, got %d", *builds)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", *workers)
	}
	fleetCounts, err := parseFleetTenants(*fleetTenants)
	if err != nil {
		return err
	}
	if *fleetQuota < 0 || *fleetQuota > 100 {
		return fmt.Errorf("-quota must be between 0 and 100 (percent of the shared budget), got %d", *fleetQuota)
	}
	if *fleetBudget <= 0 {
		return fmt.Errorf("-budget must be positive (shared resident pages of the fleet experiment), got %d", *fleetBudget)
	}
	if *fleetBursts <= 0 {
		return fmt.Errorf("-bursts must be positive (request bursts per tenant), got %d", *fleetBursts)
	}
	keep, err := parseWorkloadFilter(*wfilter)
	if err != nil {
		return err
	}
	// Each fleet tenant is a distinct (serve workload, strategy) pair, so
	// a larger fleet cannot be formed. A filter that leaves no serve
	// workload skips the fleet figure instead.
	if n := len(filterWorkloads(workloads.Serve(), keep)); n > 0 && (*figure == "all" || *figure == "fleet") {
		for _, t := range fleetCounts {
			if t > n*len(fleetStrategies) {
				return fmt.Errorf("-tenants terms must be <= %d, the distinct serve workload×strategy pairs, got %d", n*len(fleetStrategies), t)
			}
		}
	}
	dev, err := osim.DeviceByName(*device)
	if err != nil {
		return err
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfiles()) }()

	cfg := eval.DefaultConfig()
	cfg.Builds = *builds
	cfg.Workers = *workers
	cfg.Device = dev
	h := eval.NewHarness(cfg)

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	start := time.Now()
	var runErr error
	run := func(name string, f func() error) {
		if runErr != nil || (*figure != "all" && *figure != name) {
			return
		}
		if err := f(); err != nil {
			runErr = fmt.Errorf("figure %s: %w", name, err)
		}
	}

	baseline := benchDoc{
		Schema: benchSchema, Device: cfg.Device.Name,
		Builds:  cfg.Builds,
		Figures: map[string]map[string]float64{},
	}
	table := func(key, file string, make func() (*eval.Table, error)) error {
		t, err := make()
		if err != nil {
			return err
		}
		fmt.Println(t.Render())
		path := filepath.Join(*out, file)
		if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", path)
		geo := map[string]float64{}
		for _, s := range t.Strategies {
			// Degenerate cells carry NaN factors, which encoding/json rejects.
			if c := t.Get(eval.GeoMeanRow, s); c != nil && !c.Degenerate {
				geo[s] = c.Factor
			}
		}
		if len(geo) > 0 {
			baseline.Figures[key] = geo
		}
		return nil
	}
	// figureTable runs one figure over its (possibly filtered) workload set;
	// a filter that empties the set skips the figure rather than failing, so
	// "-workloads Bounce" works with "-figure all".
	figureTable := func(key, file, title string, ws []workloads.Workload,
		make func(string, []workloads.Workload) (*eval.Table, error)) error {
		ws = filterWorkloads(ws, keep)
		if len(ws) == 0 {
			fmt.Printf("%s: no selected workloads, skipped\n\n", key)
			return nil
		}
		return table(key, file, func() (*eval.Table, error) { return make(title, ws) })
	}

	run("2", func() error {
		return figureTable("figure2-pagefaults-awfy", "figure2-pagefaults-awfy.csv",
			"Figure 2: page-fault reduction on AWFY", workloads.AWFY(), h.PageFaultTable)
	})
	run("3", func() error {
		return figureTable("figure3-pagefaults-microservices", "figure3-pagefaults-microservices.csv",
			"Figure 3: page-fault reduction on microservices", workloads.Microservices(), h.PageFaultTable)
	})
	run("4", func() error {
		return figureTable("figure4-speedup-microservices", "figure4-speedup-microservices.csv",
			"Figure 4: execution-time speedup on microservices", workloads.Microservices(), h.SpeedupTable)
	})
	run("5", func() error {
		return figureTable("figure5-speedup-awfy", "figure5-speedup-awfy.csv",
			"Figure 5: execution-time speedup on AWFY", workloads.AWFY(), h.SpeedupTable)
	})
	run("overhead", func() error {
		ws := filterWorkloads(workloads.All(), keep)
		if len(ws) == 0 {
			fmt.Printf("overhead: no selected workloads, skipped\n\n")
			return nil
		}
		return table("overhead", "overhead.csv", func() (*eval.Table, error) { return h.Overhead(ws) })
	})
	run("accessed", func() error {
		ws := filterWorkloads(workloads.AWFY(), keep)
		if len(ws) == 0 {
			fmt.Printf("accessed: no selected workloads, skipped\n\n")
			return nil
		}
		fracs, err := h.AccessedFraction(ws)
		if err != nil {
			return err
		}
		names := make([]string, 0, len(fracs))
		for n := range fracs {
			names = append(names, n)
		}
		sort.Strings(names)
		var sb strings.Builder
		sb.WriteString("workload,accessed_fraction\n")
		sum := 0.0
		fmt.Println("Accessed snapshot-object fraction (Sec. 7.2; paper: ~4% on AWFY)")
		for _, n := range names {
			fmt.Printf("  %-12s %5.1f%%\n", n, 100*fracs[n])
			fmt.Fprintf(&sb, "%s,%.4f\n", n, fracs[n])
			sum += fracs[n]
		}
		fmt.Printf("  %-12s %5.1f%%\n", "mean", 100*sum/float64(len(fracs)))
		path := filepath.Join(*out, "accessed-fraction.csv")
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", path)
		return nil
	})
	run("6", func() error {
		regular, optimized, err := h.Figure6(*viz)
		if err != nil {
			return err
		}
		txt := textviz.SideBySide(
			fmt.Sprintf("Figure 6a: %s .text, regular binary", *viz), regular,
			fmt.Sprintf("Figure 6b: %s .text, cu-ordered binary", *viz), optimized,
			64)
		fmt.Println(txt)
		if err := os.WriteFile(filepath.Join(*out, "figure6.txt"), []byte(txt), 0o644); err != nil {
			return err
		}
		for _, part := range []struct {
			name   string
			states []osim.PageState
		}{{"figure6a-regular.ppm", regular}, {"figure6b-cu.ppm", optimized}} {
			path := filepath.Join(*out, part.name)
			if err := os.WriteFile(path, []byte(textviz.PPM(part.states, 64, 4)), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
		}
		fmt.Println()
		return nil
	})
	run("serve", func() error {
		// Serve-mode comparison: warm-burst latency and re-fault volume per
		// layout under severe inter-burst pressure, plus the static layout
		// scorecards predicted from the baseline affinity recording under
		// mild and severe pressure.
		ws := filterWorkloads(workloads.Serve(), keep)
		if len(ws) == 0 {
			fmt.Printf("serve: no selected workloads, skipped\n\n")
			return nil
		}
		// The scorecards need the co-access recording, so the serve figure
		// runs on an affinity-tracking harness; latency/re-fault tables share
		// it, keeping every serve run measured exactly once.
		acfg := cfg
		acfg.TrackAffinity = true
		ah := eval.NewHarness(acfg)
		// The measured tables run at severe pressure only: at 30% the
		// baseline re-faults under one page per build, too few to rank
		// layouts.
		severe := eval.DefaultServeConfig()
		severe.PressurePct = 70
		lat := func() (*eval.Table, error) { return ah.ServeLatencyTable(ws, severe, nil) }
		ref := func() (*eval.Table, error) { return ah.ServeRefaultTable(ws, severe, nil) }
		if err := table("serve-latency-p70", "serve-latency-p70.csv", lat); err != nil {
			return err
		}
		if err := table("serve-refaults-p70", "serve-refaults-p70.csv", ref); err != nil {
			return err
		}
		for _, p := range []int{30, 70} {
			scfg := eval.DefaultServeConfig()
			scfg.PressurePct = p
			var sb strings.Builder
			sb.WriteString("workload,strategy,pressure_pct,locality,avg_window_pages,peak_window_pages,predicted_refaults,predicted_cold_pages,refault_factor\n")
			factors := map[string][]float64{}
			for _, w := range ws {
				_, cards, err := ah.AffinityScorecards(w, scfg, nil)
				if err != nil {
					return err
				}
				fmt.Println(textviz.ScorecardTable(cards))
				for _, c := range cards {
					fmt.Fprintf(&sb, "%s,%s,%d,%.4f,%.2f,%d,%d,%d,%.4f\n",
						c.Workload, c.Strategy, c.PressurePct, c.LocalityScore,
						c.AvgWindowPages, c.PeakWindowPages,
						c.PredictedRefaults, c.PredictedColdPages,
						c.PredictedRefaultFactor)
					if c.Strategy != eval.LayoutBaseline && c.PredictedRefaultFactor > 0 {
						factors[c.Strategy] = append(factors[c.Strategy], c.PredictedRefaultFactor)
					}
				}
			}
			path := filepath.Join(*out, fmt.Sprintf("serve-scorecards-p%d.csv", p))
			if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n\n", path)
			geo := map[string]float64{}
			for s, fs := range factors {
				geo[s] = eval.GeoMean(fs)
			}
			if len(geo) > 0 {
				baseline.Figures[fmt.Sprintf("serve-scorecards-p%d", p)] = geo
			}
		}
		// BENCH_serve.json is the serve slice of the bench doc — the
		// per-strategy warm-burst latency, measured re-fault, and predicted
		// scorecard geomeans per pressure — written unconditionally so the
		// nightly job and local runs get the serve baseline without -bench.
		if err := writeBench(filepath.Join(*out, "BENCH_serve.json"),
			baseline.slice("serve-", cfg.Builds)); err != nil {
			return err
		}
		fmt.Println()
		return nil
	})
	run("fleet", func() error {
		// Multi-tenant fleet observatory: at each tenant count, a
		// mixed-strategy fleet shares ONE page cache. The bench slice
		// carries the per-strategy isolation geomeans vs each tenant's
		// solo run and the fairness spread (min/max isolation across the
		// fleet); the CSV carries the who-evicted-whom matrices.
		ws := filterWorkloads(workloads.Serve(), keep)
		if len(ws) == 0 {
			fmt.Printf("fleet: no selected workloads, skipped\n\n")
			return nil
		}
		// One image per tenant layout: fleet interference is a property of
		// the shared cache, not of build-seed noise.
		fhcfg := cfg
		fhcfg.Builds = 1
		fh := eval.NewHarness(fhcfg)
		var csv strings.Builder
		csv.WriteString("tenants,evictor,owner,pages\n")
		fairness := map[string]float64{}
		for _, n := range fleetCounts {
			// Diagonal traversal of the workload×strategy grid: small fleets
			// already mix strategies instead of replaying one column.
			specs := make([]eval.TenantSpec, 0, n)
			for i := 0; i < n; i++ {
				specs = append(specs, eval.TenantSpec{
					Workload: ws[i%len(ws)].Name,
					Strategy: fleetStrategies[(i/len(ws)+i%len(ws))%len(fleetStrategies)],
					QuotaPct: *fleetQuota,
				})
			}
			fos, err := fh.MeasureFleet(eval.FleetConfig{
				Tenants:     specs,
				Bursts:      *fleetBursts,
				PressurePct: 40,
				CacheBudget: *fleetBudget,
			})
			if err != nil {
				return err
			}
			rep := fos[0].FleetReport()
			fmt.Print(textviz.FleetTable(fmt.Sprintf(
				"Fleet scorecard (%d tenants, budget %d pages, quota %d%%)",
				n, *fleetBudget, *fleetQuota), rep))
			fmt.Println()
			fmt.Println(textviz.FleetMatrix(rep.EvictedBy, rep.TotalEvictions))
			label := func(i int) string {
				if i == 0 {
					return "ext"
				}
				t := rep.Tenants[i-1]
				return fmt.Sprintf("t%02d:%s/%s", t.Tenant, t.Workload, t.Strategy)
			}
			for i, row := range rep.EvictedBy {
				for j := 1; j < len(row); j++ {
					fmt.Fprintf(&csv, "%d,%s,%s,%d\n", n, label(i), label(j), row[j])
				}
			}
			isolation := map[string][]float64{}
			isoMin, isoMax := math.Inf(1), 0.0
			for _, t := range rep.Tenants {
				if t.IsolationLatency > 0 {
					isolation[t.Strategy] = append(isolation[t.Strategy], t.IsolationLatency)
					isoMin = math.Min(isoMin, t.IsolationLatency)
					isoMax = math.Max(isoMax, t.IsolationLatency)
				}
			}
			geoIso := map[string]float64{}
			for s, fs := range isolation {
				geoIso[s] = eval.GeoMean(fs)
			}
			if len(geoIso) > 0 {
				baseline.Figures[fmt.Sprintf("fleet-isolation-t%d", n)] = geoIso
			}
			if isoMax > 0 {
				fairness[fmt.Sprintf("t%d", n)] = isoMin / isoMax
			}
		}
		if len(fairness) > 0 {
			baseline.Figures["fleet-fairness"] = fairness
		}
		cpath := filepath.Join(*out, "fleet-interference.csv")
		if err := os.WriteFile(cpath, []byte(csv.String()), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", cpath)
		// BENCH_fleet.json is the fleet slice of the bench doc.
		if err := writeBench(filepath.Join(*out, "BENCH_fleet.json"), baseline.slice("fleet-", 1)); err != nil {
			return err
		}
		fmt.Println()
		return nil
	})
	run("report", func() error {
		// The observability deep-dive is deliberately small: one image and
		// one cold run per configuration carry full per-event records
		// (pipeline stage spans, per-section fault timelines, match
		// breakdowns, profiler dump statistics), which would be wasteful at
		// the figures' build counts.
		rcfg := cfg
		rcfg.Builds = 1
		rcfg.Observe = true
		rh := eval.NewHarness(rcfg)
		var ws []workloads.Workload
		for _, name := range []string{"Bounce", "micronaut"} {
			if keep != nil && !keep[name] {
				continue
			}
			w, err := workloads.ByName(name)
			if err != nil {
				return err
			}
			ws = append(ws, w)
		}
		if len(ws) == 0 {
			fmt.Printf("report: no selected workloads, skipped\n\n")
			return nil
		}
		// The report covers the serve-relevant layouts from the registry
		// (text-only, heap-only, combined, and the graph-based two), so a
		// newly registered serve strategy appears here without a list edit.
		rep, err := rh.Report(ws, core.ServeStrategyNames())
		if err != nil {
			return err
		}
		path := filepath.Join(*out, "report.json")
		if err := writeDoc(path, rep); err != nil {
			return err
		}
		fmt.Printf("Observability report: %d entries over %d workloads\n", len(rep.Entries), len(ws))
		for _, e := range rep.Entries {
			label := e.Strategy
			if label == "" {
				label = "baseline"
			}
			var stages int
			if len(e.Pipeline) > 0 {
				stages = len(e.Pipeline[0].Spans)
			}
			var faults int
			if len(e.Runs) > 0 {
				if tl := e.Runs[0].Timeline("osim.faults"); tl != nil {
					faults = len(tl.Events)
				}
			}
			fmt.Printf("  %-10s %-12s %2d pipeline spans, %4d fault events\n",
				e.Workload, label, stages, faults)
		}
		fmt.Printf("wrote %s\n\n", path)
		return nil
	})
	if runErr != nil {
		return runErr
	}

	if *bench != "" && len(baseline.Figures) > 0 {
		if err := writeBench(*bench, baseline); err != nil {
			return err
		}
	}

	wall := time.Since(start)
	fmt.Printf("done in %v (builds=%d, device=%s)\n",
		wall.Round(time.Millisecond), cfg.Builds, cfg.Device.Name)
	if work := h.WorkDuration(); work > 0 && wall > 0 {
		fmt.Printf("scheduler: %d workers, %v of build+measure work in %v wall clock (%.2fx)\n",
			h.Workers(), work.Round(time.Millisecond), wall.Round(time.Millisecond),
			work.Seconds()/wall.Seconds())
	}
	return nil
}
