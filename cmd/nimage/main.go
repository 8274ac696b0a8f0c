// Command nimage drives the simulated Native-Image toolchain on the
// built-in workloads: build images, run them cold, execute the
// profile-guided pipeline, and visualize page-fault maps.
//
// Usage:
//
//	nimage info
//	nimage build   -workload Bounce [-kind regular|instrumented|optimized] [-seed N] [-report out.json]
//	nimage run     -workload Bounce [-strategy cu] [-device ssd|nfs] [-report out.json]
//	nimage serve   -workload serve-api [-strategy cu] [-streams N] [-bursts N] [-burst N] [-pressure PCT] [-budget PAGES] [-report out.json]
//	nimage slo     [-workload serve-api] [-streams N] [-slo "p50=100us,p99=2ms"] [-pressures 0,30,70] [-trace t.json] [-o slo.json]
//	nimage tune    [-workload serve-api] [-budget-iters N] [-top-k N] [-seed N] [-pressures 30,70] [-slo "p99=2ms"] [-o search.json]
//	nimage profile -workload Bounce -strategy "heap path" [-out profile.csv] [-trace trace.bin]
//	nimage order   -workload Bounce [-seed N]
//	nimage report  -workloads Bounce,micronaut [-strategies "cu,heap path"] [-o report.json] [-artifacts dir]
//	nimage faults  -workload Bounce [-strategy cu] [-top 20] [-o attrib.json] [-pprof p.pb.gz] [-trace t.json]
//	nimage faults  -diff baseline.json optimized.json
//	nimage affinity -workload serve-api [-strategy cu] [-top 20] [-o graph.json] [-dot g.dot] [-trace t.json]
//	nimage affinity -workload serve-api -diff [-strategies "cu,heap path"]
//	nimage viz     -workload Bounce [-section text|heap] [-ppm out.ppm]
//	nimage export  -workload Towers -strategy "cu+heap path" -o towers.nimg
//	nimage exec    -image towers.nimg [-report out.json]
//	nimage verify  [-workloads Bounce] [-strategies "cu,heap path"] [-seeds N] [-o report.json]
package main

import (
	"flag"
	"fmt"
	"os"

	"nimage"
	"nimage/internal/core"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "info":
		err = cmdInfo(os.Args[2:])
	case "build":
		err = cmdBuild(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "slo":
		err = cmdSlo(os.Args[2:])
	case "fleet":
		err = cmdFleet(os.Args[2:])
	case "tune":
		err = cmdTune(os.Args[2:])
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "order":
		err = cmdOrder(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "faults":
		err = cmdFaults(os.Args[2:])
	case "affinity":
		err = cmdAffinity(os.Args[2:])
	case "viz":
		err = cmdViz(os.Args[2:])
	case "export":
		err = cmdExport(os.Args[2:])
	case "exec":
		err = cmdExec(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "nimage: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nimage:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: nimage <command> [flags]

commands:
  info      list workloads and their compiled-world sizes
  build     build one image and print its layout
  run       build and run images cold, print page faults and times
  serve     drive request bursts under cache pressure, print burst telemetry
  slo       sweep pressure with concurrent streams, score layouts against latency SLOs
  fleet     serve N tenants from one shared page cache, print the interference matrix
  tune      run the SLO-driven layout search, print the trajectory and winner
  profile   run the profile-guided pipeline, write ordering profiles
  order     print the per-strategy object match breakdown across builds
  report    run an observed evaluation, write a consolidated report.json
  faults    attribute cold-start page faults to symbols; -diff compares two runs
  affinity  record the temporal co-access graph, score layouts; -diff ranks strategies
  viz       render the Fig. 6 page-fault grid (-section text|heap)
  export    build an image and write its portable .nimg recipe
  exec      bake a .nimg recipe and run it cold
  verify    check baseline/instrumented/optimized behavioral equivalence

run 'nimage <command> -h' for flags`)
}

func workloadFlag(fs *flag.FlagSet) *string {
	return fs.String("workload", "Bounce", "workload name (see 'nimage info')")
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	h := nimage.NewHarness(nimage.DefaultEvalConfig())
	fmt.Println("workloads (AWFY + microservices):")
	info, err := h.CompilerInfo(nimage.AllWorkloads())
	if err != nil {
		return err
	}
	fmt.Print(info)
	// Every registered strategy bakes by name, including the serve-only
	// graph layouts outside the cold-start set.
	fmt.Println("\nstrategies:", core.StrategyNames())
	return nil
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	name := workloadFlag(fs)
	kind := fs.String("kind", "regular", "build kind: regular|instrumented|optimized")
	strategy := fs.String("strategy", nimage.StrategyCU, "strategy for instrumented/optimized builds")
	seed := fs.Uint64("seed", 1, "build seed (non-determinism source)")
	dump := fs.String("dump", "", "disassemble the method with this signature (e.g. 'BounceBench.benchmark(1)')")
	report := fs.String("report", "", "write the build's observability snapshot to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := nimage.WorkloadByName(*name)
	if err != nil {
		return err
	}
	p := w.Build()

	var reg *nimage.ObsRegistry
	if *report != "" {
		reg = nimage.NewObsRegistry()
	}
	var img *nimage.Image
	switch *kind {
	case "regular", "instrumented":
		opts := nimage.BuildOptions{
			Kind:      nimage.KindRegular,
			Compiler:  nimage.DefaultCompilerConfig(),
			BuildSeed: *seed,
			Obs:       reg,
		}
		if *kind == "instrumented" {
			opts.Kind = nimage.KindInstrumented
		}
		img, err = nimage.BuildImage(p, opts)
	case "optimized":
		var res *nimage.PipelineResult
		res, err = nimage.ProfileAndOptimize(p, nimage.PipelineOptions{
			Compiler:         nimage.DefaultCompilerConfig(),
			Strategy:         *strategy,
			InstrumentedSeed: *seed + 100,
			OptimizedSeed:    *seed,
			Mode:             serviceMode(w),
			Args:             w.Args,
			Service:          w.Service,
			Obs:              reg,
		})
		if res != nil {
			img = res.Optimized
		}
	default:
		return fmt.Errorf("unknown build kind %q", *kind)
	}
	if err != nil {
		return err
	}
	if reg != nil {
		if err := writeSnapshot(*report, reg); err != nil {
			return err
		}
		fmt.Printf("wrote build report to %s\n", *report)
	}
	fmt.Printf("%s (%s build, seed %d)\n", w.Name, *kind, *seed)
	fmt.Printf("  classes:           %d\n", len(p.Classes))
	fmt.Printf("  methods:           %d\n", p.NumMethods())
	fmt.Printf("  compilation units: %d\n", len(img.CULayout))
	fmt.Printf("  snapshot objects:  %d (%d bytes)\n", len(img.Snapshot.Objects), img.Snapshot.TotalSize)
	fmt.Printf("  .text:             %d bytes at %d (native tail %d bytes)\n", img.TextSize(), img.TextSection.Off, img.NativeLen)
	fmt.Printf("  .svm_heap:         %d bytes at %d\n", img.HeapSize(), img.HeapSection.Off)
	fmt.Printf("  file size:         %d bytes\n", img.FileSize)
	if *kind == "optimized" {
		fmt.Printf("  code profile:      %d/%d entries matched\n", img.CodeOrderStats.Matched, img.CodeOrderStats.ProfileLen)
		fmt.Printf("  heap profile:      %d objects matched (%d entries)\n", img.HeapMatchStats.MatchedObjects, img.HeapMatchStats.ProfileLen)
	}
	if *dump != "" {
		var target *nimage.Method
		for _, c := range p.Classes {
			for _, m := range c.Methods {
				if m.Signature() == *dump {
					target = m
				}
			}
		}
		if target == nil {
			return fmt.Errorf("no method with signature %q", *dump)
		}
		fmt.Println()
		fmt.Print(nimage.Disassemble(target))
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	name := workloadFlag(fs)
	strategy := fs.String("strategy", "", "optimize with this strategy first (empty = regular build)")
	device := fs.String("device", "ssd", "storage device: ssd|nfs")
	seed := fs.Uint64("seed", 1, "build seed")
	report := fs.String("report", "", "write the combined build+run observability snapshot to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dev, err := nimage.DeviceByName(*device)
	if err != nil {
		return err
	}
	w, err := nimage.WorkloadByName(*name)
	if err != nil {
		return err
	}
	p := w.Build()

	var reg *nimage.ObsRegistry
	if *report != "" {
		reg = nimage.NewObsRegistry()
	}
	var img *nimage.Image
	if *strategy == "" {
		img, err = nimage.BuildImage(p, nimage.BuildOptions{
			Kind: nimage.KindRegular, Compiler: nimage.DefaultCompilerConfig(), BuildSeed: *seed,
			Obs: reg,
		})
	} else {
		var res *nimage.PipelineResult
		res, err = nimage.ProfileAndOptimize(p, nimage.PipelineOptions{
			Compiler:         nimage.DefaultCompilerConfig(),
			Strategy:         *strategy,
			InstrumentedSeed: *seed + 100,
			OptimizedSeed:    *seed,
			Mode:             serviceMode(w),
			Args:             w.Args,
			Service:          w.Service,
			Obs:              reg,
		})
		if res != nil {
			img = res.Optimized
		}
	}
	if err != nil {
		return err
	}

	o := nimage.NewOS(dev)
	o.Obs = reg
	layout := "regular"
	if *strategy != "" {
		layout = *strategy
	}
	fmt.Printf("%s (%s layout, %s, cold start)\n", w.Name, layout, dev.Name)
	proc, err := img.NewProcess(o, nimage.Hooks{})
	if err != nil {
		return err
	}
	proc.Machine.StopOnRespond = w.Service
	if err := proc.Run(w.Args...); err != nil {
		proc.Close()
		return err
	}
	st := proc.Stats()
	line := fmt.Sprintf("  .text faults %d, .svm_heap faults %d, total faults %d, cpu %v, io %v, total %v",
		st.TextFaults.Total(), st.HeapFaults.Total(), st.TotalFaults, st.CPUTime, st.IOTime, st.Total)
	if w.Service {
		line += fmt.Sprintf(", time-to-first-response %v", st.TimeToResponse)
	}
	fmt.Println(line)
	fmt.Printf("  accessed %d of %d snapshot objects (%.1f%%)\n",
		st.AccessedObjects, st.SnapshotObjects,
		100*float64(st.AccessedObjects)/float64(st.SnapshotObjects))
	proc.Close()
	if reg != nil {
		if err := writeSnapshot(*report, reg); err != nil {
			return err
		}
		fmt.Printf("wrote run report to %s\n", *report)
	}
	return nil
}
