// Command nimage-bench is the repository's benchmark. It measures the
// simulator's own wall-clock cost and the simulated outcome on four
// workloads — bake-micro, start-awfy, serve-pressure and fleet-budget —
// calling the toolchain's public functions, and checks every output and
// conservation law on the way.
//
// Run one workload (from the repository root, through bench/run.sh, or
// from this directory with go run):
//
//	nimage-bench -workload start-awfy -seed 1 -seconds 10 -trace 0 [-o DIR]
//
// The last line of standard output is the run's result as JSON. Without
// -workload every workload runs in a process of its own. -trace 1 runs the
// traced variant, which reports the per-layer metrics and writes spans,
// a CPU profile and the per-layer numbers under .bench_build/trace.
//
// Compare two sets of runs written with -o:
//
//	nimage-bench compare PARENT_DIR CHANGE_DIR
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

const (
	// A run sets its workload up at least setups times and, where set-up
	// is cheap, up to maxSetups times until set-up took setupSeconds;
	// setup_s is the median.
	setups       = 3
	maxSetups    = 15
	setupSeconds = 1.5
	// defaultSeconds is the measured time of a run, BENCHMARK.json's
	// run_seconds.
	defaultSeconds = 20
	// minOps is the fewest ops an untraced run measures, so that
	// op_p90_ms has at least minTail samples beyond it on a slow machine.
	minOps = 110
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nimage-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			return errors.New("usage: nimage-bench compare PARENT_DIR CHANGE_DIR")
		}
		return compare(args[1], args[2], os.Stdout)
	}
	fs := flag.NewFlagSet("nimage-bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run; empty runs every workload, each in a process of its own")
	seed := fs.Uint64("seed", 1, "workload seed: every input of the run derives from it")
	seconds := fs.Float64("seconds", defaultSeconds, "measured time of a run; its first pass always completes")
	trace := fs.Int("trace", 0, "1 runs the traced variant, which reports the per-layer metrics")
	outDir := fs.String("o", "", "directory to write each run's result to, for compare")
	scale := fs.Int("scale", 1, "divide every workload dimension by this, for quick checks")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	case !(*seconds > 0):
		return fmt.Errorf("-seconds must be positive, got %g", *seconds)
	case *scale < 1:
		return fmt.Errorf("-scale must be at least 1, got %d", *scale)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	if *workload == "" {
		return runAll(args)
	}
	spec, err := workloadByName(*workload)
	if err != nil {
		return err
	}
	// One P. The ops run one at a time, so a second P would only run the
	// garbage collector alongside them; with it, op times also depended on
	// whether the shared host ran both vCPUs at that moment, and their
	// spread between runs was twice as wide, at the same median speed.
	runtime.GOMAXPROCS(1)
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: *scale, setups: setups, setupSeconds: setupSeconds, minOps: minOps}
	if cfg.trace {
		cfg.traceDir = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d", spec.name, cfg.seed))
	}
	return runOne(spec, cfg, *outDir)
}

// runAll runs every workload in a child process with the same flags, so
// that each has its own set-up time and heap.
func runAll(args []string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, spec := range workloadSpecs {
		fmt.Printf("== %s\n", spec.name)
		cmd := exec.Command(exe, append([]string{"-workload", spec.name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", spec.name, err)
		}
	}
	return nil
}

func runOne(spec workloadSpec, cfg config, outDir string) error {
	d, err := measure(spec, cfg)
	if err != nil {
		return err
	}
	res, err := summarize(d, cfg.trace)
	if err != nil {
		return fmt.Errorf("%s: %w", spec.name, err)
	}
	for _, f := range d.failures {
		fmt.Fprintln(os.Stderr, "FAILED:", f)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		if err := writeJSON(filepath.Join(cfg.traceDir, "layers.json"), layerReport(spec, d, res)); err != nil {
			return fmt.Errorf("writing per-layer JSON: %w", err)
		}
	}
	fmt.Printf("%s seed %d: %d ops, %d failed, %.1f s measured\n", spec.name, cfg.seed, res.Attempted, res.Failed, d.elapsed.Seconds())
	if !cfg.trace {
		fmt.Printf("  calibration kernel p%g %.4g ms: wall times below are scaled by %.4g\n", 100*quietQ, quantile(d.calib, quietQ), d.calibScale())
	}
	for _, m := range defs {
		fmt.Printf("  %-32s %14.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if outDir == "" {
		return nil
	}
	name := spec.name + "-seed" + strconv.FormatUint(cfg.seed, 10)
	if cfg.trace {
		name += "-trace"
	}
	return writeJSON(filepath.Join(outDir, name+".json"), runFile{Workload: spec.name, Seed: cfg.seed, Trace: cfg.trace, result: *res})
}

// layerReport is the per-layer JSON a traced run writes: its metrics, the
// milliseconds per op of every spanned layer, and the profile's CPU
// milliseconds per module.
func layerReport(spec workloadSpec, d *runData, res *result) any {
	spanMs := map[string]float64{}
	for _, s := range d.spans {
		if name, _ := spanLayer(s.Name); name != "" {
			spanMs[name[:len(name)-len("_frac")]+"_ms_per_op"] += float64(s.Dur) / 1e6 / float64(d.tracedOps)
		}
	}
	cpuMs := map[string]float64{}
	for m, ns := range d.cpu {
		cpuMs[m] = float64(ns) / 1e6
	}
	return map[string]any{
		"workload":        spec.name,
		"traced_ops":      d.tracedOps,
		"traced_seconds":  d.elapsed.Seconds(),
		"metrics":         res.Metrics,
		"span_ms_per_op":  spanMs,
		"cpu_ms":          cpuMs,
		"baseline_op_p50": median(d.baseWalls.ms),
		"traced_op_p50":   median(d.walls.ms),
	}
}
