package main

import (
	"flag"
	"fmt"
	"os"

	"nimage"
	"nimage/internal/core"
	"nimage/internal/graal"
	"nimage/internal/image"
	"nimage/internal/postproc"
	"nimage/internal/profiler"
)

// cmdProfile performs the profiling half of the methodology explicitly —
// instrumented build → traced run → trace file → post-processing → CSV
// ordering profile — through image.RunProfile, the run BuildOptimized
// makes, and writes both artifacts to disk (Sec. 6).
func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	name := workloadFlag(fs)
	strategy := fs.String("strategy", nimage.StrategyCU, "strategy whose profile to produce")
	out := fs.String("out", "", "ordering-profile CSV path (default <workload>-<kind>.csv)")
	tracePath := fs.String("trace", "", "also write the raw trace file here")
	seed := fs.Uint64("seed", 101, "build seed of the instrumented image")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := nimage.WorkloadByName(*name)
	if err != nil {
		return err
	}
	info, ok := core.StrategyByName(*strategy)
	if !ok || !info.Eval {
		return fmt.Errorf("unknown strategy %q", *strategy)
	}
	// The strategy's first probe kind: the CU run for "cu+heap path". A
	// heap run records the IDs of the named strategy only. Profiling
	// finishes before the output file is created, so a failure leaves no
	// empty profile behind.
	instr := info.Instr[0]
	prof, traces, err := image.RunProfile(w.Build(), image.PipelineOptions{
		Compiler:         graal.DefaultConfig(),
		InstrumentedSeed: *seed,
		Mode:             profiler.ModeFor(w.Service),
		Args:             w.Args,
		Service:          w.Service,
	}, instr, core.HeapStrategyByName(*strategy))
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s-instrumented run (%s buffers): %d threads, %d trace words, %v simulated\n",
		w.Name, instr, prof.Run.Mode, len(traces), prof.Run.TraceWords, prof.Run.Total)

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := profiler.WriteTraces(f, instr, prof.Run.Mode, traces); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote raw trace to %s\n", *tracePath)
	}

	path := *out
	if path == "" {
		path = fmt.Sprintf("%s-%s.csv", w.Name, instr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if instr == graal.InstrHeap {
		heapProf := prof.Heap[*strategy]
		if err := postproc.WriteHeapProfile(f, heapProf); err != nil {
			return err
		}
		fmt.Printf("wrote %s heap-ordering profile (%d IDs) to %s\n", *strategy, len(heapProf), path)
		return nil
	}
	if err := postproc.WriteCodeProfile(f, prof.Code); err != nil {
		return err
	}
	fmt.Printf("wrote %s-ordering profile (%d entries) to %s\n", instr, len(prof.Code), path)
	return nil
}

// cmdViz renders the Fig. 6 comparison: .text page states of the regular
// binary vs the cu-ordered binary.
func cmdViz(args []string) error {
	fs := flag.NewFlagSet("viz", flag.ExitOnError)
	name := workloadFlag(fs)
	width := fs.Int("width", 64, "grid width in cells")
	section := fs.String("section", "text", "section to visualize: text|heap")
	ppm := fs.String("ppm", "", "also write PPM images to <ppm>-regular.ppm / <ppm>-optimized.ppm")
	if err := fs.Parse(args); err != nil {
		return err
	}
	h := nimage.NewHarness(nimage.DefaultEvalConfig())
	var regular, optimized []nimage.PageState
	var err error
	secName, stratName := ".text", "cu-ordered"
	switch *section {
	case "text":
		regular, optimized, err = h.Figure6(*name)
	case "heap":
		// The heap-snapshot visualization the paper lists as future work.
		secName, stratName = ".svm_heap", "heap-path-ordered"
		regular, optimized, err = h.Figure6Heap(*name)
	default:
		return fmt.Errorf("unknown section %q", *section)
	}
	if err != nil {
		return err
	}
	fmt.Print(nimage.RenderPageGridsSideBySide(
		fmt.Sprintf("%s %s — regular binary", *name, secName), regular,
		fmt.Sprintf("%s %s — %s binary", *name, secName, stratName), optimized,
		*width))
	if *ppm != "" {
		for _, part := range []struct {
			suffix string
			states []nimage.PageState
		}{{"-regular.ppm", regular}, {"-optimized.ppm", optimized}} {
			if err := os.WriteFile(*ppm+part.suffix, []byte(nimage.RenderPagePPM(part.states, *width, 4)), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *ppm+part.suffix)
		}
	}
	return nil
}
