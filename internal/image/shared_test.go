package image

import (
	"fmt"
	"sync"
	"testing"

	"nimage/internal/core"
	"nimage/internal/graal"
	"nimage/internal/ir"
	"nimage/internal/workloads"
)

// layoutKey renders what an instrumented build decides from the
// program's shared, lazily cached facts (method signatures, the
// compiled-method list): the .text layout with each CU's offset, and the
// method-table order.
func layoutKey(img *Image) string {
	s := ""
	for _, cu := range img.CULayout {
		s += fmt.Sprintf("%s@%d;", cu.Signature(), img.CUOffset(cu))
	}
	s += "|"
	for i, m := range img.Table.Methods {
		s += fmt.Sprintf("%d=%s;", i, m.Signature())
	}
	return s
}

// TestConcurrentBuildsShareProgram builds one program from eight
// goroutines at once, the way the eval scheduler does, starting with its
// caches cold. Every build must yield the layout of a build of a separate
// copy of the program.
func TestConcurrentBuildsShareProgram(t *testing.T) {
	w, err := workloads.ByName("Bounce")
	if err != nil {
		t.Fatal(err)
	}
	// A CU-instrumented build, so that the image has a method table.
	opts := Options{Kind: KindInstrumented, Compiler: graal.DefaultConfig(), Instr: graal.InstrCU, BuildSeed: 1}
	ref, err := Build(w.Build(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := layoutKey(ref)

	shared := w.Build()
	const n = 8
	keys := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			img, err := Build(shared, opts)
			if err != nil {
				errs[i] = err
				return
			}
			keys[i] = layoutKey(img)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("build %d: %v", i, errs[i])
		}
		if keys[i] != want {
			t.Errorf("build %d: CU layout or method table differs from a build of a separate copy", i)
		}
	}
}

// TestBuildOptimizedRejectsUnbuildable checks that the pipeline, which
// runs its shared reachability analysis before any build, rejects an
// unresolved program and one without an entry point with Build's error
// rather than analyzing it.
func TestBuildOptimizedRejectsUnbuildable(t *testing.T) {
	b := ir.NewBuilder("noentry")
	b.Class(ir.StringClass)
	noEntry, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	unresolved := &ir.Program{Name: "unresolved", EntryClass: "Main", EntryMethod: "main"}
	for _, p := range []*ir.Program{unresolved, noEntry} {
		_, want := Build(p, regularOpts())
		if want == nil {
			t.Fatalf("%s: Build accepted the program", p.Name)
		}
		for _, strategy := range []string{core.StrategyCU, core.StrategyCombined, core.StrategyC3} {
			res, err := BuildOptimized(p, PipelineOptions{Compiler: graal.DefaultConfig(), Strategy: strategy})
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%s/%s: BuildOptimized error = %v, want %v", p.Name, strategy, err, want)
			}
			if res != nil {
				t.Errorf("%s/%s: BuildOptimized returned a result with its error", p.Name, strategy)
			}
		}
	}
}
