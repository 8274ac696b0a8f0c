package main

import (
	"flag"
	"fmt"
	"os"

	"nimage"
	"nimage/internal/image"
)

// cmdExport builds an image (optionally through the profile-guided
// pipeline) and writes its portable recipe to a .nimg file. Because image
// builds are deterministic functions of the recipe, shipping the recipe is
// shipping the binary.
func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	name := workloadFlag(fs)
	strategy := fs.String("strategy", "", "optimize with this strategy (empty = regular build)")
	seed := fs.Uint64("seed", 1, "build seed")
	out := fs.String("o", "", "output .nimg path (default <workload>.nimg)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := nimage.WorkloadByName(*name)
	if err != nil {
		return err
	}
	p := w.Build()

	var img *nimage.Image
	if *strategy == "" {
		img, err = nimage.BuildImage(p, nimage.BuildOptions{
			Kind: nimage.KindRegular, Compiler: nimage.DefaultCompilerConfig(), BuildSeed: *seed,
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
		})
		if res != nil {
			img = res.Optimized
		}
	}
	if err != nil {
		return err
	}

	path := *out
	if path == "" {
		path = w.Name + ".nimg"
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := image.WriteRecipe(f, image.RecipeOf(img)); err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes): %s image of %s, file size %d bytes when baked\n",
		path, st.Size(), img.Opts.Kind, w.Name, img.FileSize)
	return nil
}

// serviceMode returns the trace-buffer mode a workload's profiling run
// needs (memory-mapped for services killed after their first response).
func serviceMode(w nimage.Workload) nimage.DumpMode {
	if w.Service {
		return nimage.MemoryMapped
	}
	return nimage.DumpOnFull
}

// cmdExec loads a .nimg recipe, bakes the image, and runs it cold.
func cmdExec(args []string) error {
	fs := flag.NewFlagSet("exec", flag.ExitOnError)
	path := fs.String("image", "", ".nimg file to execute (required)")
	device := fs.String("device", "ssd", "storage device: ssd|nfs")
	report := fs.String("report", "", "write the run's observability snapshot to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("exec: -image is required")
	}
	dev, err := nimage.DeviceByName(*device)
	if err != nil {
		return err
	}
	f, err := os.Open(*path)
	if err != nil {
		return err
	}
	recipe, err := image.ReadRecipe(f)
	f.Close()
	if err != nil {
		return err
	}
	img, err := recipe.Bake()
	if err != nil {
		return err
	}
	w, err := nimage.WorkloadByName(img.Program.Name)
	args2 := []int64{1}
	service := false
	if err == nil {
		args2 = w.Args
		service = w.Service
	}

	o := nimage.NewOS(dev)
	var reg *nimage.ObsRegistry
	if *report != "" {
		reg = nimage.NewObsRegistry()
		o.Obs = reg
	}
	fmt.Printf("%s (%s image from %s, %s)\n", img.Program.Name, img.Opts.Kind, *path, dev.Name)
	proc, err := img.NewProcess(o, nimage.Hooks{})
	if err != nil {
		return err
	}
	proc.Machine.StopOnRespond = service
	if err := proc.Run(args2...); err != nil {
		proc.Close()
		return err
	}
	st := proc.Stats()
	fmt.Printf("  .text faults %d, .svm_heap faults %d, total %v\n",
		st.TextFaults.Total(), st.HeapFaults.Total(), st.Total)
	proc.Close()
	if reg != nil {
		if err := writeSnapshot(*report, reg); err != nil {
			return err
		}
		fmt.Printf("wrote run report to %s\n", *report)
	}
	return nil
}
