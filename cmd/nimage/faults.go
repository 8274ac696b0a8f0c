package main

import (
	"flag"
	"fmt"
	"os"

	"nimage"
	"nimage/internal/obs/attrib"
	"nimage/internal/textviz"
)

// cmdFaults builds and cold-runs one image with per-fault attribution and
// prints the ranked cold-symbol table: which CUs, heap objects, and image
// regions still fault, in cold-start order, at what I/O cost. With -diff,
// it instead compares two attribution tables written by -o.
func cmdFaults(args []string) error {
	fs := flag.NewFlagSet("faults", flag.ExitOnError)
	name := workloadFlag(fs)
	strategy := fs.String("strategy", "", "optimize with this strategy first (empty = regular build)")
	device := fs.String("device", "ssd", "storage device: ssd|nfs")
	seed := fs.Uint64("seed", 1, "build seed")
	top := fs.Int("top", 20, "symbols to print (0 = all)")
	out := fs.String("o", "", "write the attribution table to this JSON file (the -diff input format)")
	pprofOut := fs.String("pprof", "", "write a pprof profile here (inspect with 'go tool pprof')")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON here (chrome://tracing, Perfetto)")
	diff := fs.Bool("diff", false, "diff two attribution tables: nimage faults -diff baseline.json optimized.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *diff {
		rest := fs.Args()
		if len(rest) < 2 {
			return fmt.Errorf("-diff takes two attribution tables (baseline.json optimized.json)")
		}
		// Accept flags after the two positional table paths too.
		if err := fs.Parse(rest[2:]); err != nil {
			return err
		}
		if fs.NArg() != 0 {
			return fmt.Errorf("-diff takes exactly two attribution tables, got %q", append(rest[:2], fs.Args()...))
		}
		return faultsDiff(rest[0], rest[1], *top)
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
	reg := nimage.NewObsRegistry()
	var img *nimage.Image
	layout := "identity"
	if *strategy == "" {
		img, err = nimage.BuildImage(p, nimage.BuildOptions{
			Kind: nimage.KindRegular, Compiler: nimage.DefaultCompilerConfig(),
			BuildSeed: *seed, Obs: reg,
		})
	} else {
		layout = *strategy
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
	o.DropCaches()
	proc, err := img.NewProcess(o, nimage.Hooks{})
	if err != nil {
		return err
	}
	proc.Machine.StopOnRespond = w.Service
	if err := proc.Run(w.Args...); err != nil {
		proc.Close()
		return err
	}
	tab := proc.AttributionTable()
	proc.Close()
	if tab == nil {
		return fmt.Errorf("no attribution recorded")
	}
	tab.Layout = layout

	fmt.Print(textviz.FaultTable(tab, *top))

	if *out != "" {
		if err := writeWith(*out, func(f *os.File) error { return attrib.WriteTable(f, tab) }); err != nil {
			return err
		}
		fmt.Printf("wrote attribution table to %s\n", *out)
	}
	if *pprofOut != "" {
		if err := writeWith(*pprofOut, func(f *os.File) error { return attrib.WritePprof(f, tab) }); err != nil {
			return err
		}
		fmt.Printf("wrote pprof profile to %s (go tool pprof -top %s)\n", *pprofOut, *pprofOut)
	}
	if *traceOut != "" {
		snap := reg.Snapshot()
		if err := writeWith(*traceOut, func(f *os.File) error { return attrib.WriteChromeTrace(f, snap, tab) }); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace to %s\n", *traceOut)
	}
	return nil
}

// faultsDiff loads two attribution tables and prints their symbol diff.
func faultsDiff(basePath, optPath string, top int) error {
	base, err := readTable(basePath)
	if err != nil {
		return err
	}
	opt, err := readTable(optPath)
	if err != nil {
		return err
	}
	d := attrib.DiffTables(base, opt)
	fmt.Print(textviz.FaultDiff(d, top))
	return nil
}

func readTable(path string) (*attrib.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := attrib.ReadTable(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// writeWith creates path and hands the file to write, closing it in every
// case.
func writeWith(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
