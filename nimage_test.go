package nimage_test

import (
	"bytes"
	"strings"
	"testing"

	"nimage"
)

// TestFacadeQuickPipeline exercises the public API end to end: DSL-built
// program → regular build → profile-guided build → cold run comparison.
func TestFacadeQuickPipeline(t *testing.T) {
	w, err := nimage.WorkloadByName("Queens")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()

	regular, err := nimage.BuildImage(p, nimage.BuildOptions{
		Kind: nimage.KindRegular, Compiler: nimage.DefaultCompilerConfig(), BuildSeed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nimage.ProfileAndOptimize(p, nimage.PipelineOptions{
		Compiler:         nimage.DefaultCompilerConfig(),
		Strategy:         nimage.StrategyCombined,
		InstrumentedSeed: 13,
		OptimizedSeed:    2,
		Args:             w.Args,
	})
	if err != nil {
		t.Fatal(err)
	}

	run := func(img *nimage.Image) nimage.RunStats {
		o := nimage.NewOS(nimage.SSD())
		proc, err := img.NewProcess(o, nimage.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		defer proc.Close()
		if err := proc.Run(w.Args...); err != nil {
			t.Fatal(err)
		}
		return proc.Stats()
	}
	base, opt := run(regular), run(res.Optimized)
	bf := base.TextFaults.Total() + base.HeapFaults.Total()
	of := opt.TextFaults.Total() + opt.HeapFaults.Total()
	if of >= bf {
		t.Errorf("combined strategy did not reduce faults: %d -> %d", bf, of)
	}
	if opt.Total >= base.Total {
		t.Errorf("no speedup: %v -> %v", base.Total, opt.Total)
	}
}

// TestFacadeDSL builds a tiny program through the exported DSL surface.
func TestFacadeDSL(t *testing.T) {
	b := nimage.NewProgramBuilder("tiny")
	b.Class("java.lang.Object")
	b.Class("java.lang.String")
	c := b.Class("T")
	c.Field("x", nimage.IntType())
	m := c.StaticMethod("main", 0, nimage.VoidType())
	e := m.Entry()
	o := e.New("T")
	k := e.ConstInt(41)
	one := e.ConstInt(1)
	e.PutField(o, "T", "x", e.Arith(nimage.OpAdd, k, one))
	e.RetVoid()
	b.SetEntry("T", "main")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	img, err := nimage.BuildImage(p, nimage.BuildOptions{
		Kind: nimage.KindRegular, Compiler: nimage.DefaultCompilerConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	oS := nimage.NewOS(nimage.NFS())
	proc, err := img.NewProcess(oS, nimage.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()
	if err := proc.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeStrategiesAndWorkloads(t *testing.T) {
	// The cold-start set is the paper's six strategies; the graph-based
	// layouts are serve-only.
	if len(nimage.Strategies()) != 6 {
		t.Errorf("strategies = %v", nimage.Strategies())
	}
	in := func(names []string, want string) bool {
		for _, n := range names {
			if n == want {
				return true
			}
		}
		return false
	}
	for _, s := range []string{nimage.StrategyC3, nimage.StrategyExtTSP} {
		if in(nimage.Strategies(), s) {
			t.Errorf("graph strategy %q in the cold-start set %v", s, nimage.Strategies())
		}
		if !in(nimage.ServeStrategies(), s) {
			t.Errorf("graph strategy %q missing from the serve set %v", s, nimage.ServeStrategies())
		}
	}
	if len(nimage.HeapStrategies()) != 3 {
		t.Error("heap strategies")
	}
	if len(nimage.AWFY()) != 14 || len(nimage.Microservices()) != 3 || len(nimage.AllWorkloads()) != 17 {
		t.Error("workload counts")
	}
	if _, err := nimage.WorkloadByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFacadeVisualization(t *testing.T) {
	states := []nimage.PageState{0, 1, 2, 2}
	grid := nimage.RenderPageGrid(states, 2)
	if grid != ".o\n##\n" {
		t.Errorf("grid = %q", grid)
	}
	duo := nimage.RenderPageGridsSideBySide("a", states, "b", states, 2)
	if !strings.Contains(duo, "a — 4 pages") || !strings.Contains(duo, "b — 4 pages") {
		t.Errorf("side by side:\n%s", duo)
	}
	if !strings.HasPrefix(nimage.RenderPagePPM(states, 2, 1), "P3\n") {
		t.Error("ppm header")
	}
}

// TestFacadeRecipeRoundTrip exports an optimized image as a .nimg recipe
// and bakes it back, checking layout determinism through the public API.
func TestFacadeRecipeRoundTrip(t *testing.T) {
	w, err := nimage.WorkloadByName("Sieve")
	if err != nil {
		t.Fatal(err)
	}
	res, err := nimage.ProfileAndOptimize(w.Build(), nimage.PipelineOptions{
		Compiler:         nimage.DefaultCompilerConfig(),
		Strategy:         nimage.StrategyHeapPath,
		InstrumentedSeed: 3,
		OptimizedSeed:    4,
		Args:             w.Args,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nimage.WriteRecipe(&buf, nimage.RecipeOf(res.Optimized)); err != nil {
		t.Fatal(err)
	}
	r, err := nimage.ReadRecipe(&buf)
	if err != nil {
		t.Fatal(err)
	}
	baked, err := r.Bake()
	if err != nil {
		t.Fatal(err)
	}
	if baked.FileSize != res.Optimized.FileSize ||
		baked.HeapMatchStats.MatchedObjects != res.Optimized.HeapMatchStats.MatchedObjects {
		t.Error("baked image differs from original")
	}
}
