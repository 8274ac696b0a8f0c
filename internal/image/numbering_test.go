package image

import (
	"reflect"
	"testing"

	"nimage/internal/core"
	"nimage/internal/graal"
	"nimage/internal/ir"
	"nimage/internal/osim"
	"nimage/internal/profiler"
	"nimage/internal/workloads"
)

// heapProfilingRun executes a heap-instrumented image the way profileOnce
// does, numbering paths with nb. It returns the traces and the set of
// methods the run entered.
func heapProfilingRun(t *testing.T, img *Image, w workloads.Workload, nb *profiler.Numberings) ([]profiler.ThreadTrace, map[*ir.Method]bool) {
	t.Helper()
	tr := profiler.NewTracer(graal.InstrHeap, img.Opts.Mode)
	tr.MethodIdx = img.Table.Index
	tr.Numberings = nb
	tr.ObjectHandle = img.ObjectHandle
	entered := make(map[*ir.Method]bool)
	hooks := vmCompose(tr.Hooks(), vmHooks{OnMethodEnter: func(_ int, m *ir.Method) { entered[m] = true }})
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
// table), and each heap strategy's profile equals the one a run numbered
// up front produces.
func TestNumberingOnFirstUse(t *testing.T) {
	for _, name := range []string{"micronaut", "Bounce"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := w.Build()
		mode := profiler.DumpOnFull
		if w.Service {
			mode = profiler.MemoryMapped
		}
		for _, strategy := range []string{core.StrategyIncremental, core.StrategyStructural, core.StrategyHeapPath} {
			where := name + "/" + strategy
			img, err := Build(p, Options{
				Kind: KindInstrumented, Compiler: graal.DefaultConfig(), Instr: graal.InstrHeap,
				Mode: mode, BuildSeed: 3, HeapStrategy: core.HeapStrategyByName(strategy),
			})
			if err != nil {
				t.Fatal(err)
			}
			memo := img.Numberings
			if n := len(memo.Computed()); n != 0 {
				t.Fatalf("%s: build numbered %d methods before any run", where, n)
			}
			traces, entered := heapProfilingRun(t, img, w, memo)
			got, err := img.HeapProfile(traces, strategy)
			if err != nil {
				t.Fatal(err)
			}

			computed := memo.Computed()
			if len(computed) == 0 || len(computed) >= len(img.Table.Methods) {
				t.Fatalf("%s: memo holds %d of %d methods, want some but fewer", where, len(computed), len(img.Table.Methods))
			}
			for _, nb := range computed {
				if !entered[nb.Method] {
					t.Fatalf("%s: memo numbered %s, which the run never entered", where, nb.Method.Signature())
				}
				if want := profiler.ComputeNumbering(nb.Method, img.Opts.MaxPaths); !reflect.DeepEqual(nb, want) {
					t.Fatalf("%s: memoized numbering of %s differs from ComputeNumbering", where, nb.Method.Signature())
				}
			}

			eager := img.Table.Numberings(img.Opts.MaxPaths)
			for _, m := range img.Table.Methods {
				eager.Of(m)
			}
			eagerTraces, _ := heapProfilingRun(t, img, w, eager)
			if !reflect.DeepEqual(traces, eagerTraces) {
				t.Fatalf("%s: traces differ between lazy and eager numbering", where)
			}
			img.Numberings = eager
			want, err := img.HeapProfile(eagerTraces, strategy)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: heap profile of %d IDs, %d with eager numbering", where, len(got), len(want))
			}
			t.Logf("%s: numbered %d of %d methods", where, len(computed), len(img.Table.Methods))
		}
	}
}
