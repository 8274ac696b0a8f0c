package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"nimage"
	"nimage/internal/eval"
	"nimage/internal/obs"
	"nimage/internal/obs/attrib"
	"nimage/internal/workloads"
)

// writeSnapshot writes a registry's snapshot as indented JSON to path.
func writeSnapshot(path string, r *nimage.ObsRegistry) error {
	return writeWith(path, func(f *os.File) error { return obs.WriteDoc(f, r.Snapshot()) })
}

// validateHarnessFlags rejects out-of-range harness sizing up front
// instead of letting the harness clamp or misbehave: zero builds or
// iterations would silently measure nothing, and a negative worker count
// is neither a concurrency cap nor the GOMAXPROCS default (that's 0).
func validateHarnessFlags(builds, iters, workers int) error {
	if builds < 1 {
		return fmt.Errorf("-builds must be >= 1, got %d", builds)
	}
	if iters < 1 {
		return fmt.Errorf("-iters must be >= 1, got %d", iters)
	}
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", workers)
	}
	return nil
}

// cmdReport runs an observed evaluation of one or more workloads and writes
// the consolidated report document, printing a human summary.
func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	names := fs.String("workloads", "Bounce,micronaut", "comma-separated workload names")
	strategies := fs.String("strategies", "cu,heap path", "comma-separated strategies (empty = baseline only)")
	builds := fs.Int("builds", 1, "images per strategy")
	iters := fs.Int("iters", 1, "cold iterations per image")
	workers := fs.Int("workers", 0, "concurrent build+measure tasks (0 = GOMAXPROCS; results are identical for every count)")
	out := fs.String("o", "report.json", "output JSON path")
	artifacts := fs.String("artifacts", "", "also write per-entry attribution artifacts (attrib JSON, pprof, Chrome trace) into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateHarnessFlags(*builds, *iters, *workers); err != nil {
		return err
	}

	var ws []workloads.Workload
	for _, n := range strings.Split(*names, ",") {
		w, err := nimage.WorkloadByName(strings.TrimSpace(n))
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}
	var strats []string
	if *strategies != "" {
		for _, s := range strings.Split(*strategies, ",") {
			strats = append(strats, strings.TrimSpace(s))
		}
	}

	cfg := nimage.DefaultEvalConfig()
	cfg.Builds = *builds
	cfg.Iterations = *iters
	cfg.Workers = *workers
	cfg.Observe = true
	h := nimage.NewHarness(cfg)
	rep, err := h.Report(ws, strats)
	if err != nil {
		return err
	}

	if err := writeWith(*out, func(f *os.File) error { return rep.WriteJSON(f) }); err != nil {
		return err
	}

	fmt.Printf("wrote %s (%d entries, device %s, %d builds x %d iterations)\n",
		*out, len(rep.Entries), rep.Device, rep.Builds, rep.Iterations)
	if *artifacts != "" {
		if err := writeArtifacts(*artifacts, rep); err != nil {
			return err
		}
	}
	for _, e := range rep.Entries {
		printEntrySummary(e)
	}
	return nil
}

// writeArtifacts exports each entry's merged attribution as the three
// artifact formats: the table JSON (the `nimage faults -diff` input), a
// pprof profile, and a Chrome trace built from the entry's first cold-run
// snapshot.
func writeArtifacts(dir string, rep *eval.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, e := range rep.Entries {
		if e.Attribution == nil {
			continue
		}
		layout := e.Strategy
		if layout == "" {
			layout = eval.LayoutBaseline
		}
		stem := filepath.Join(dir, e.Workload+"-"+strings.ReplaceAll(layout, " ", "_"))
		tab := e.Attribution
		if err := writeWith(stem+".attrib.json", func(f *os.File) error { return attrib.WriteTable(f, tab) }); err != nil {
			return err
		}
		if err := writeWith(stem+".pb.gz", func(f *os.File) error { return attrib.WritePprof(f, tab) }); err != nil {
			return err
		}
		var snap *obs.Snapshot
		if len(e.Runs) > 0 {
			snap = e.Runs[0]
		}
		if err := writeWith(stem+".trace.json", func(f *os.File) error { return attrib.WriteChromeTrace(f, snap, tab) }); err != nil {
			return err
		}
		fmt.Printf("wrote attribution artifacts %s.{attrib.json,pb.gz,trace.json}\n", stem)
	}
	return nil
}

// printEntrySummary prints the human-readable digest of one report entry.
func printEntrySummary(e eval.ReportEntry) {
	label := e.Strategy
	if label == "" {
		label = "baseline"
	}
	fmt.Printf("\n%s / %s\n", e.Workload, label)
	if len(e.Pipeline) > 0 {
		p := e.Pipeline[0]
		fmt.Println("  build pipeline (first build):")
		for _, sp := range p.Spans {
			fmt.Printf("    %-42s %v\n", sp.Name, time.Duration(sp.DurationNanos))
		}
		// Profiler totals aggregate over every build of the entry.
		merged := obs.MergeSnapshots(e.Pipeline...)
		if n := merged.Counter("profiler.paths"); n > 0 {
			fmt.Printf("    profiler (all %d builds): %d paths, %d flushes, %d remaps, %.0f trace bytes\n",
				len(e.Pipeline), n, merged.Counter("profiler.flushes"), merged.Counter("profiler.remaps"),
				merged.Gauge("profiler.bytes_written"))
		}
	}
	if len(e.Runs) > 0 {
		r := e.Runs[0]
		if tl := r.Timeline("osim.faults"); tl != nil {
			bySec := map[string]int{}
			for _, ev := range tl.Events {
				bySec[ev.Label]++
			}
			secs := make([]string, 0, len(bySec))
			for s := range bySec {
				secs = append(secs, s)
			}
			sort.Strings(secs)
			fmt.Print("  faults (first cold run):")
			for _, s := range secs {
				fmt.Printf(" %s=%d", s, bySec[s])
			}
			fmt.Println()
		}
		fmt.Printf("  time: cpu %v, io %v, total %v\n",
			time.Duration(r.Gauge("run.cpu_nanos")),
			time.Duration(r.Gauge("run.io_nanos")),
			time.Duration(r.Gauge("run.total_nanos")))
	}
	if e.HeapMatch != nil {
		hm := e.HeapMatch
		fmt.Printf("  heap match (%s): %d/%d objects matched (%.1f%% of %d entries), %d unmatched, %d in %d collision groups\n",
			hm.Strategy, hm.MatchedObjects, hm.MatchedObjects+hm.UnmatchedObjects,
			100*hm.MatchRate, hm.ProfileLen, hm.UnmatchedObjects,
			hm.CollisionObjects, hm.CollisionGroups)
	}
}

// cmdOrder runs the profile-guided pipeline once per object-identity
// strategy and prints the cross-build match breakdown: how many objects the
// strategy's IDs matched, how many were left behind, and how many were
// pulled forward only as part of an ambiguous collision group.
func cmdOrder(args []string) error {
	fs := flag.NewFlagSet("order", flag.ExitOnError)
	name := workloadFlag(fs)
	seed := fs.Uint64("seed", 1, "build seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := nimage.WorkloadByName(*name)
	if err != nil {
		return err
	}
	p := w.Build()

	fmt.Printf("%s: object match breakdown across builds (instrumented seed %d, optimized seed %d)\n",
		w.Name, *seed+100, *seed)
	fmt.Printf("  %-16s %10s %10s %10s %12s %12s %12s %10s\n",
		"strategy", "profile", "entries", "matched", "unmatched", "coll-groups", "coll-objs", "rate")
	for _, hs := range nimage.HeapStrategies() {
		res, err := nimage.ProfileAndOptimize(p, nimage.PipelineOptions{
			Compiler:         nimage.DefaultCompilerConfig(),
			Strategy:         hs.Name(),
			InstrumentedSeed: *seed + 100,
			OptimizedSeed:    *seed,
			Mode:             serviceMode(w),
			Args:             w.Args,
			Service:          w.Service,
		})
		if err != nil {
			return err
		}
		b := res.Optimized.HeapMatchStats.Breakdown(hs.Name())
		fmt.Printf("  %-16s %10d %10d %10d %12d %12d %12d %9.1f%%\n",
			b.Strategy, b.ProfileLen, b.MatchedEntries, b.MatchedObjects,
			b.UnmatchedObjects, b.CollisionGroups, b.CollisionObjects, 100*b.MatchRate)
	}
	return nil
}
