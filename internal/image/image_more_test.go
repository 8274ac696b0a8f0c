package image

import (
	"reflect"
	"testing"

	"nimage/internal/core"
	"nimage/internal/graal"
	"nimage/internal/obs"
	"nimage/internal/osim"
	"nimage/internal/profiler"
	"nimage/internal/vm"
)

// TestNativeRegionFaultsIdenticalAcrossLayouts: the trailing native-code
// region of .text faults the same page set under the regular and the
// cu-ordered layout (the strategies do not reorder native methods).
func TestNativeRegionFaultsIdenticalAcrossLayouts(t *testing.T) {
	p := buildApp(t)
	reg, err := Build(p, regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	res, err := BuildOptimized(p, PipelineOptions{
		Compiler:         graal.DefaultConfig(),
		Strategy:         core.StrategyCU,
		InstrumentedSeed: 7,
		OptimizedSeed:    9,
	})
	if err != nil {
		t.Fatal(err)
	}
	nativeFaults := func(img *Image) map[int64]bool {
		o := testOS()
		proc, err := img.NewProcess(o, vm.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		defer proc.Close()
		if err := proc.Run(); err != nil {
			t.Fatal(err)
		}
		states := proc.Mapping.PageStates(SectionText)
		out := map[int64]bool{}
		firstPage := img.TextSection.Off / osim.PageSize
		nativeFirst := img.NativeOff/osim.PageSize - firstPage
		for i, st := range states {
			if int64(i) >= nativeFirst && st == osim.PageFaulted {
				out[int64(i)-nativeFirst] = true
			}
		}
		return out
	}
	a := nativeFaults(reg)
	b := nativeFaults(res.Optimized)
	if len(a) == 0 {
		t.Fatal("native region never faulted")
	}
	if len(a) != len(b) {
		t.Fatalf("native fault counts differ: %d vs %d", len(a), len(b))
	}
	for page := range a {
		if !b[page] {
			t.Fatalf("native page %d faulted only under one layout", page)
		}
	}
	if reg.NativeLen != res.Optimized.NativeLen {
		t.Errorf("native region sizes differ: %d vs %d", reg.NativeLen, res.Optimized.NativeLen)
	}
}

// TestHubTouchedOnAllocation: allocating an instance touches the class's
// hub object page in .svm_heap.
func TestHubTouchedOnAllocation(t *testing.T) {
	p := buildApp(t)
	img, err := Build(p, regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	hub := img.Hubs[p.Class("Data")]
	if hub == nil || !hub.InSnapshot {
		t.Fatal("Data has no snapshot hub")
	}
	o := testOS()
	proc, err := img.NewProcess(o, vm.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()
	if err := proc.Run(); err != nil {
		t.Fatal(err)
	}
	// Data instances are allocated by the clinit at build time AND by no
	// runtime code in buildApp... main reads them but does not allocate.
	// Registry's clinit ran at build time, so the hub may be untouched;
	// instead check a class that IS allocated at runtime: none in buildApp.
	// So assert the mechanism directly: a fresh process touching OpNew.
	states := proc.Mapping.PageStates(SectionHeap)
	_ = states
	// Directly exercise the hook.
	m := proc.Machine
	_ = m
	before := proc.Mapping.Faults
	proc.hooks().OnNew(0, p.Class("Data"))
	if proc.Mapping.Faults == before {
		// The hub page may already be resident via fault-around; touch a
		// second, colder hub to be sure the mechanism wires through.
		proc.hooks().OnNew(0, p.Class("App"))
	}
	// The strongest check: the hub's page is mapped afterwards.
	page := (img.HeapSection.Off + hub.Offset) / osim.PageSize
	st := proc.Mapping.PageStates(SectionHeap)
	idx := page - img.HeapSection.Off/osim.PageSize
	if st[idx] == osim.PageUntouched {
		t.Error("hub page untouched after allocation hook")
	}
}

// TestCUOffsetsAligned: every CU offset is 16-byte aligned (code
// alignment), and the first CU starts right after the header page.
func TestCUOffsetsAligned(t *testing.T) {
	p := buildApp(t)
	img, err := Build(p, regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	if img.CUOffset(img.CULayout[0]) != osim.PageSize {
		t.Errorf("first CU at %d", img.CUOffset(img.CULayout[0]))
	}
	for _, cu := range img.CULayout {
		if img.CUOffset(cu)%16 != 0 {
			t.Fatalf("CU %s at unaligned offset %d", cu.Signature(), img.CUOffset(cu))
		}
	}
}

// TestProcessReuseRejected: a closed process cannot run again.
func TestProcessReuseRejected(t *testing.T) {
	p := buildApp(t)
	img, err := Build(p, regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	proc, err := img.NewProcess(testOS(), vm.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.Run(); err != nil {
		t.Fatal(err)
	}
	proc.Close()
	if err := proc.Run(); err == nil {
		t.Fatal("closed process ran again")
	}
	proc.Close() // double close is a no-op
}

// TestStrategyIDHandleBounds: out-of-range handles, unknown strategies and
// strategies the image did not record do not translate.
func TestStrategyIDHandleBounds(t *testing.T) {
	p := buildApp(t)
	img, err := Build(p, Options{
		Kind: KindInstrumented, Compiler: graal.DefaultConfig(),
		Instr: graal.InstrHeap, BuildSeed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	img.recordIDs([]core.HeapStrategy{core.HeapStrategyByName(core.StrategyHeapPath)})
	n := uint64(len(img.Snapshot.Objects))
	if _, ok := img.StrategyIDOfHandle(core.StrategyHeapPath, n+1); ok {
		t.Error("out-of-range handle translated")
	}
	if _, ok := img.StrategyIDOfHandle("no such strategy", 1); ok {
		t.Error("unknown strategy translated")
	}
	if _, ok := img.StrategyIDOfHandle(core.StrategyStructural, 1); ok {
		t.Error("unrecorded strategy translated")
	}
	if id, ok := img.StrategyIDOfHandle(core.StrategyHeapPath, n); !ok || id == 0 {
		t.Error("last valid handle failed")
	}
}

// TestHeapProfileNeedsRecordedIDs: post-processing a heap profile for a
// strategy whose IDs were not recorded is an error, not an empty profile —
// directly, in a profiling run and through the pipeline. A build records
// no IDs, whatever its options: they belong to the profiling run, which
// records and translates every strategy it is asked for.
func TestHeapProfileNeedsRecordedIDs(t *testing.T) {
	p := buildApp(t)
	for _, opts := range []Options{
		{Instr: graal.InstrCU, HeapStrategy: core.HeapStrategyByName(core.StrategyHeapPath)},
		{Instr: graal.InstrHeap},
		{Instr: graal.InstrHeap, HeapStrategy: core.HeapStrategyByName(core.StrategyHeapPath)},
	} {
		opts.Kind, opts.Compiler, opts.BuildSeed = KindInstrumented, graal.DefaultConfig(), 3
		img, err := Build(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if prof, err := img.HeapProfile(nil); err == nil {
			t.Errorf("%s build: %d heap profiles, want an error", opts.Instr, len(prof))
		}
	}

	popts := PipelineOptions{Compiler: graal.DefaultConfig(), InstrumentedSeed: 3, OptimizedSeed: 4, Mode: profiler.DumpOnFull}
	recorded := []core.HeapStrategy{core.HeapStrategyByName(core.StrategyStructural), core.HeapStrategyByName(core.StrategyHeapPath)}
	both, _, err := RunProfile(p, popts, graal.InstrHeap, recorded...)
	if err != nil {
		t.Fatal(err)
	}
	if len(both.Heap) != len(recorded) {
		t.Errorf("profile translated %d strategies, want %d", len(both.Heap), len(recorded))
	}
	for _, s := range recorded {
		one, _, err := RunProfile(p, popts, graal.InstrHeap, s)
		if err != nil {
			t.Fatal(err)
		}
		if n := s.Name(); len(both.Heap[n]) == 0 || !reflect.DeepEqual(both.Heap[n], one.Heap[n]) {
			t.Errorf("%s: shared run gives %d IDs, its own run %d", n, len(both.Heap[n]), len(one.Heap[n]))
		}
	}
	shared := func(graal.Instrumentation, func([]core.HeapStrategy, *obs.Registry) (*Profile, error)) (*Profile, error) {
		return both, nil
	}
	popts.Strategy = core.StrategyIncremental
	if _, err := BuildOptimizedWith(p, popts, shared); err == nil {
		t.Errorf("%q pipeline baked from a profile that recorded only %d other strategies", core.StrategyIncremental, len(recorded))
	}
}

// TestInstrumentedVsOptimizedCUsDiverge: the methodology's core premise —
// the two builds of the pipeline form different compilation units.
func TestInstrumentedVsOptimizedCUsDiverge(t *testing.T) {
	p := buildApp(t)
	ins, err := Build(p, Options{
		Kind: KindInstrumented, Compiler: graal.DefaultConfig(),
		Instr: graal.InstrHeap, BuildSeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Build(p, Options{
		Kind: KindOptimized, Compiler: graal.DefaultConfig(), BuildSeed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	diverged := 0
	for sig, icu := range ins.Comp.CUBySig {
		ocu := opt.Comp.CUBySig[sig]
		if ocu == nil {
			continue
		}
		if len(icu.Members) != len(ocu.Members) {
			diverged++
		}
	}
	if diverged == 0 {
		t.Error("instrumented and optimized builds have identical CU compositions")
	}
}
