package image

import (
	"reflect"
	"testing"

	"nimage/internal/core"
	"nimage/internal/graal"
	"nimage/internal/ir"
	"nimage/internal/osim"
	"nimage/internal/profiler"
	"nimage/internal/vm"
	"nimage/internal/workloads"
)

// heapProfilingRun executes a heap-instrumented image the way runProfile
// does, numbering paths with nb. It returns the traces and the set of
// methods the run entered.
func heapProfilingRun(t *testing.T, img *Image, w workloads.Workload, nb *profiler.Numberings) ([]profiler.ThreadTrace, map[*ir.Method]bool) {
	t.Helper()
	tr := profiler.NewTracer(graal.InstrHeap, img.Opts.Mode)
	tr.MethodIdx = img.Table.Index
	tr.Numberings = nb
	tr.ObjectHandle = img.ObjectHandle
	entered := make(map[*ir.Method]bool)
	hooks := vm.ComposeHooks(tr.Hooks(), vm.Hooks{OnMethodEnter: func(_ int, m *ir.Method) { entered[m] = true }})
	proc, err := img.NewProcess(osim.NewOS(osim.SSD()), hooks)
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()
	tr.AddCycles = func(c int64) { proc.Machine.Cycles += c }
	proc.Machine.StopOnRespond = w.Service
	if err := proc.Run(w.Args...); err != nil {
		t.Fatal(err)
	}
	return tr.Finish(w.Service), entered
}

// TestNumberingOnFirstUse checks the heap-instrumented image's numbering
// memo on a service and a benchmark: after a profiling run and its
// post-processing, every memoized numbering equals ComputeNumbering, the
// memo holds only methods the run entered (strictly fewer than the method
// table), and every heap strategy's profile equals the one a run numbered
// up front produces.
func TestNumberingOnFirstUse(t *testing.T) {
	for _, name := range []string{"micronaut", "Bounce"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := w.Build()
		mode := profiler.ModeFor(w.Service)
		img, err := Build(p, Options{
			Kind: KindInstrumented, Compiler: graal.DefaultConfig(), Instr: graal.InstrHeap,
			Mode: mode, BuildSeed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		img.recordIDs(core.HeapStrategies())
		memo := img.Numberings
		if n := len(memo.Computed()); n != 0 {
			t.Fatalf("%s: build numbered %d methods before any run", name, n)
		}
		traces, entered := heapProfilingRun(t, img, w, memo)
		got, err := img.HeapProfile(traces)
		if err != nil {
			t.Fatal(err)
		}

		computed := memo.Computed()
		if len(computed) == 0 || len(computed) >= len(img.Table.Methods) {
			t.Fatalf("%s: memo holds %d of %d methods, want some but fewer", name, len(computed), len(img.Table.Methods))
		}
		for _, nb := range computed {
			if !entered[nb.Method] {
				t.Fatalf("%s: memo numbered %s, which the run never entered", name, nb.Method.Signature())
			}
			if want := profiler.ComputeNumbering(nb.Method, img.Opts.MaxPaths); !reflect.DeepEqual(nb, want) {
				t.Fatalf("%s: memoized numbering of %s differs from ComputeNumbering", name, nb.Method.Signature())
			}
		}

		eager := img.Table.Numberings(img.Opts.MaxPaths)
		for _, m := range img.Table.Methods {
			eager.Of(m)
		}
		eagerTraces, _ := heapProfilingRun(t, img, w, eager)
		if !reflect.DeepEqual(traces, eagerTraces) {
			t.Fatalf("%s: traces differ between lazy and eager numbering", name)
		}
		img.Numberings = eager
		want, err := img.HeapProfile(eagerTraces)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range core.HeapStrategies() {
			if n := s.Name(); len(want[n]) == 0 || !reflect.DeepEqual(got[n], want[n]) {
				t.Fatalf("%s/%s: heap profile of %d IDs, %d with eager numbering", name, n, len(got[n]), len(want[n]))
			}
		}
		t.Logf("%s: numbered %d of %d methods", name, len(computed), len(img.Table.Methods))
	}
}
