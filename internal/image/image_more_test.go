package image

import (
	"testing"

	"nimage/internal/core"
	"nimage/internal/graal"
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
// strategies the build did not record do not translate.
func TestStrategyIDHandleBounds(t *testing.T) {
	p := buildApp(t)
	img, err := Build(p, Options{
		Kind: KindInstrumented, Compiler: graal.DefaultConfig(),
		Instr: graal.InstrHeap, BuildSeed: 3,
		HeapStrategy: core.HeapStrategyByName(core.StrategyHeapPath),
	})
	if err != nil {
		t.Fatal(err)
	}
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
// strategy whose IDs the instrumented build did not record is an error,
// not an empty profile — both directly and through the pipeline.
func TestHeapProfileNeedsRecordedIDs(t *testing.T) {
	p := buildApp(t)
	for _, opts := range []Options{
		{Instr: graal.InstrCU, HeapStrategy: core.HeapStrategyByName(core.StrategyHeapPath)},
		{Instr: graal.InstrHeap},
		{Instr: graal.InstrHeap, HeapStrategy: core.HeapStrategyByName(core.StrategyStructural)},
	} {
		opts.Kind, opts.Compiler, opts.BuildSeed = KindInstrumented, graal.DefaultConfig(), 3
		img, err := Build(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if prof, err := img.HeapProfile(nil, core.StrategyHeapPath); err == nil {
			t.Errorf("%s build: heap path profile of %d IDs, want an error", opts.Instr, len(prof))
		}
	}

	reach := graal.Analyze(p, graal.DefaultConfig())
	popts := PipelineOptions{Compiler: graal.DefaultConfig(), InstrumentedSeed: 3, Mode: profiler.DumpOnFull}
	if _, _, prof, err := profileOnce(p, popts, reach, graal.ScanMethods(reach), graal.InstrHeap, core.StrategyCU); err == nil {
		t.Errorf("heap profile for %q: %d IDs, want an error", core.StrategyCU, len(prof))
	}
	if _, _, prof, err := profileOnce(p, popts, reach, graal.ScanMethods(reach), graal.InstrHeap, core.StrategyHeapPath); err != nil || len(prof) == 0 {
		t.Errorf("heap path profile: %d IDs, err %v", len(prof), err)
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
