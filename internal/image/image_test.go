package image

import (
	"fmt"
	"testing"

	"nimage/internal/core"
	"nimage/internal/graal"
	"nimage/internal/ir"
	"nimage/internal/osim"
	"nimage/internal/vm"
)

// buildApp constructs a program large enough to span several pages:
//
//   - 160 leaf methods m000..m159 (~300 B each, too big to inline);
//   - main calls a scattered subset in non-alphabetical order;
//   - a clinit builds 240 Data objects into a static array; main reads
//     every 12th element's field.
func buildApp(t testing.TB) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("app")
	b.Class(ir.StringClass)

	data := b.Class("Data")
	data.Field("val", ir.Int())
	for i := 0; i < 5; i++ {
		data.Field(fmt.Sprintf("pad%d", i), ir.Int())
	}

	reg := b.Class("Registry")
	reg.Static("items", ir.Array(ir.Ref("Data")))
	cl := reg.Clinit()
	ce := cl.Entry()
	n := ce.ConstInt(240)
	arr := ce.NewArray(ir.Ref("Data"), n)
	zero := ce.ConstInt(0)
	eight := ce.ConstInt(8)
	zeroC := ce.ConstInt(0)
	exit := ce.For(zero, n, 1, func(body *ir.BlockBuilder, i ir.Reg) *ir.BlockBuilder {
		o := body.New("Data")
		body.PutField(o, "Data", "val", i)
		// Only every 8th object captures a build-dependent value, so
		// content-based identities still match most objects.
		rem := body.Arith(ir.Rem, i, eight)
		isSalted := body.Cmp(ir.Eq, rem, zeroC)
		after := body.IfThen(isSalted, func(th *ir.BlockBuilder) *ir.BlockBuilder {
			salt := th.Intrinsic(ir.IntrinsicBuildSalt)
			th.PutField(o, "Data", "pad0", salt)
			return th
		})
		after.ASet(arr, i, o)
		return after
	})
	exit.PutStatic("Registry", "items", arr)
	exit.RetVoid()

	app := b.Class("App")
	for i := 0; i < 160; i++ {
		m := app.StaticMethod(fmt.Sprintf("m%03d", i), 1, ir.Int())
		e := m.Entry()
		acc := e.Move(m.Param(0))
		for k := 0; k < 24; k++ {
			c := e.ConstInt(int64(k + i))
			e.ArithTo(acc, ir.Add, acc, c)
		}
		e.Ret(acc)
	}

	// coldAll references every leaf method, making all of them reachable —
	// the conservative analysis includes far more code than what executes
	// (Sec. 2) — but main never actually calls it at runtime.
	cold := app.StaticMethod("coldAll", 1, ir.Void())
	ce2 := cold.Entry()
	for i := 0; i < 160; i++ {
		ce2.Call("App", fmt.Sprintf("m%03d", i), cold.Param(0))
	}
	ce2.RetVoid()

	// Borderline-sized helpers: small enough for the PGO-boosted inliner,
	// too big for the regular/instrumented one — the divergence source.
	for g := 0; g < 3; g++ {
		hm := app.StaticMethod(fmt.Sprintf("helper%d", g), 1, ir.Int())
		he := hm.Entry()
		hacc := he.Move(hm.Param(0))
		for k := 0; k < 6; k++ {
			kc := he.ConstInt(int64(g*7 + k))
			he.ArithTo(hacc, ir.Add, hacc, kc)
		}
		he.Ret(hacc)
	}

	mm := app.StaticMethod("main", 0, ir.Void())
	e := mm.Entry()
	e.Str("app-banner")
	x := e.ConstInt(1)
	for g := 0; g < 3; g++ {
		e.Call("App", fmt.Sprintf("helper%d", g), x)
	}
	never := e.ConstInt(0)
	e = e.IfThen(never, func(th *ir.BlockBuilder) *ir.BlockBuilder {
		th.CallVoid("App", "coldAll", x)
		return th
	})
	// Scattered, non-alphabetical call order.
	for _, i := range []int{143, 7, 88, 21, 120, 55, 3, 99, 150, 42, 66, 17, 131, 74, 108} {
		e.Call("App", fmt.Sprintf("m%03d", i), x)
	}
	items := e.GetStatic("Registry", "items")
	zero2 := e.ConstInt(0)
	hi := e.ConstInt(240)
	exit2 := e.For(zero2, hi, 12, func(body *ir.BlockBuilder, i ir.Reg) *ir.BlockBuilder {
		o := body.AGet(items, i)
		body.GetField(o, "Data", "val")
		return body
	})
	exit2.RetVoid()
	b.SetEntry("App", "main")

	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testOS() *osim.OS {
	o := osim.NewOS(osim.SSD())
	o.FaultAround = 1
	return o
}

func regularOpts() Options {
	return Options{Kind: KindRegular, Compiler: graal.DefaultConfig(), BuildSeed: 1}
}

func TestBuildRegularLayout(t *testing.T) {
	p := buildApp(t)
	img, err := Build(p, regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(img.CULayout) < 160 {
		t.Fatalf("CUs = %d", len(img.CULayout))
	}
	// Default order is alphabetical and offsets are increasing and within
	// the .text section.
	var prevOff int64 = -1
	for i, cu := range img.CULayout {
		off := img.CUOffset(cu)
		if off <= prevOff {
			t.Fatalf("CU %d offset %d not increasing", i, off)
		}
		prevOff = off
		if i > 0 && img.CULayout[i-1].Signature() >= cu.Signature() {
			t.Fatalf("default CU order not alphabetical at %d", i)
		}
		if off < img.TextSection.Off || off+int64(cu.Size) > img.TextSection.Off+img.TextSection.Len {
			t.Fatalf("CU %s outside .text", cu.Signature())
		}
	}
	// Snapshot contains the Data objects, the array, hubs, metadata,
	// interned banner.
	if len(img.Snapshot.Objects) < 250 {
		t.Fatalf("snapshot objects = %d", len(img.Snapshot.Objects))
	}
	if img.HeapSection.Off%osim.PageSize != 0 {
		t.Error(".svm_heap not page aligned")
	}
	if img.HeapSection.Off < img.TextSection.Off+img.TextSection.Len {
		t.Error("sections overlap")
	}
	// Objects have offsets within the heap section.
	for _, o := range img.ObjLayout {
		off, size := img.Snapshot.Offset(o), img.Snapshot.Size(o)
		if off < 0 || off+size > img.HeapSection.Len {
			t.Fatalf("object at %d size %d outside heap section of %d", off, size, img.HeapSection.Len)
		}
	}
	if img.FileSize < img.HeapSection.Off+img.HeapSection.Len {
		t.Error("file too small")
	}
}

func TestBuildDeterministicPerSeed(t *testing.T) {
	p := buildApp(t)
	a, err := Build(p, regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(p, regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Snapshot.Objects) != len(b.Snapshot.Objects) {
		t.Fatalf("object counts differ: %d vs %d", len(a.Snapshot.Objects), len(b.Snapshot.Objects))
	}
	for i := range a.ObjLayout {
		if a.Snapshot.Offset(a.ObjLayout[i]) != b.Snapshot.Offset(b.ObjLayout[i]) || a.ObjLayout[i].TypeName() != b.ObjLayout[i].TypeName() {
			t.Fatalf("layout differs at %d", i)
		}
	}
	if a.TextSection != b.TextSection || a.HeapSection != b.HeapSection {
		t.Error("sections differ across identical builds")
	}
}

func TestRunProcessAndRollback(t *testing.T) {
	p := buildApp(t)
	img, err := Build(p, regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := testOS()

	run := func() Stats {
		o.DropCaches()
		proc, err := img.NewProcess(o, vmHooksNone())
		if err != nil {
			t.Fatal(err)
		}
		defer proc.Close()
		if err := proc.Run(); err != nil {
			t.Fatal(err)
		}
		return proc.Stats()
	}
	s1 := run()
	s2 := run()
	if s1.TextFaults.Total() == 0 || s1.HeapFaults.Total() == 0 {
		t.Fatalf("no faults attributed: %+v", s1)
	}
	if s1 != s2 {
		t.Fatalf("iterations differ (rollback broken?):\n%+v\n%+v", s1, s2)
	}
	if s1.AccessedObjects == 0 || s1.AccessedObjects >= s1.SnapshotObjects {
		t.Errorf("accessed %d of %d objects", s1.AccessedObjects, s1.SnapshotObjects)
	}
	if s1.Total <= s1.CPUTime || s1.IOTime == 0 {
		t.Errorf("time model: %+v", s1)
	}
}

func vmHooksNone() vm.Hooks { return vm.Hooks{} }

func TestWarmPageCacheReducesIOTime(t *testing.T) {
	p := buildApp(t)
	img, err := Build(p, regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := testOS()
	cold, err := img.NewProcess(o, vmHooksNone())
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Run(); err != nil {
		t.Fatal(err)
	}
	coldStats := cold.Stats()
	cold.Close()

	warm, err := img.NewProcess(o, vmHooksNone()) // no cache drop
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Run(); err != nil {
		t.Fatal(err)
	}
	warmStats := warm.Stats()
	warm.Close()

	if warmStats.IOTime >= coldStats.IOTime {
		t.Errorf("warm IO %v >= cold IO %v", warmStats.IOTime, coldStats.IOTime)
	}
	if warmStats.TotalFaults > coldStats.TotalFaults {
		t.Errorf("warm faults %d > cold %d", warmStats.TotalFaults, coldStats.TotalFaults)
	}
}

// runFaults builds and runs an image, returning its stats.
func runFaults(t *testing.T, img *Image) Stats {
	t.Helper()
	o := testOS()
	proc, err := img.NewProcess(o, vmHooksNone())
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()
	if err := proc.Run(); err != nil {
		t.Fatal(err)
	}
	return proc.Stats()
}

func TestPipelineCUOrderingReducesTextFaults(t *testing.T) {
	p := buildApp(t)
	reg, err := Build(p, regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	base := runFaults(t, reg)

	res, err := BuildOptimized(p, PipelineOptions{
		Compiler:         graal.DefaultConfig(),
		Strategy:         core.StrategyCU,
		InstrumentedSeed: 7,
		OptimizedSeed:    9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimized.CodeOrderStats.Matched == 0 {
		t.Fatal("code profile matched nothing")
	}
	opt := runFaults(t, res.Optimized)
	if opt.TextFaults.Total() >= base.TextFaults.Total() {
		t.Errorf("cu ordering: text faults %d -> %d (no reduction)",
			base.TextFaults.Total(), opt.TextFaults.Total())
	}
	if len(res.Runs) != 1 || res.Runs[0].Instr != graal.InstrCU {
		t.Errorf("runs = %+v", res.Runs)
	}
	if res.Runs[0].TraceWords == 0 {
		t.Error("no trace words recorded")
	}
}

func TestPipelineHeapOrderingReducesHeapFaults(t *testing.T) {
	p := buildApp(t)
	reg, err := Build(p, regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	base := runFaults(t, reg)

	for _, strategy := range []string{core.StrategyIncremental, core.StrategyStructural, core.StrategyHeapPath} {
		res, err := BuildOptimized(p, PipelineOptions{
			Compiler:         graal.DefaultConfig(),
			Strategy:         strategy,
			InstrumentedSeed: 7,
			OptimizedSeed:    9,
		})
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if res.Optimized.HeapMatchStats.MatchedObjects == 0 {
			t.Errorf("%s: heap profile matched nothing", strategy)
			continue
		}
		opt := runFaults(t, res.Optimized)
		// The test app is tiny, so fault counts are small; allow one page
		// of noise (the paper itself records a 0.99x case, Sec. 7.2).
		if opt.HeapFaults.Total() > base.HeapFaults.Total()+1 {
			t.Errorf("%s: heap faults %d -> %d (increase)",
				strategy, base.HeapFaults.Total(), opt.HeapFaults.Total())
		}
	}
}

func TestPipelineCombinedStrategy(t *testing.T) {
	p := buildApp(t)
	reg, err := Build(p, regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	base := runFaults(t, reg)

	res, err := BuildOptimized(p, PipelineOptions{
		Compiler:         graal.DefaultConfig(),
		Strategy:         core.StrategyCombined,
		InstrumentedSeed: 7,
		OptimizedSeed:    9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("combined strategy runs = %d, want 2", len(res.Runs))
	}
	opt := runFaults(t, res.Optimized)
	if opt.TextFaults.Total() >= base.TextFaults.Total() {
		t.Errorf("combined: text faults %d -> %d", base.TextFaults.Total(), opt.TextFaults.Total())
	}
	if opt.HeapFaults.Total() > base.HeapFaults.Total() {
		t.Errorf("combined: heap faults %d -> %d", base.HeapFaults.Total(), opt.HeapFaults.Total())
	}
	if opt.Total >= base.Total {
		t.Errorf("combined: time %v -> %v (no speedup)", base.Total, opt.Total)
	}
}

// TestMethodTableOnlyInstrumented checks that only the builds a tracer
// reads carry a method table: the regular and optimized builds have none,
// the CU- and heap-instrumented builds have one, and only the
// heap-instrumented build numbers paths.
func TestMethodTableOnlyInstrumented(t *testing.T) {
	p := buildApp(t)
	for _, c := range []struct {
		name              string
		kind              BuildKind
		instr             graal.Instrumentation
		table, numberings bool
	}{
		{"regular", KindRegular, graal.InstrNone, false, false},
		{"optimized", KindOptimized, graal.InstrNone, false, false},
		{"cu-instrumented", KindInstrumented, graal.InstrCU, true, false},
		{"heap-instrumented", KindInstrumented, graal.InstrHeap, true, true},
	} {
		img, err := Build(p, Options{Kind: c.kind, Compiler: graal.DefaultConfig(), Instr: c.instr, BuildSeed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if (img.Table != nil) != c.table || (img.Numberings != nil) != c.numberings {
			t.Errorf("%s: Table %v, Numberings %v; want %v, %v", c.name,
				img.Table != nil, img.Numberings != nil, c.table, c.numberings)
		}
	}
}

// TestInstrumentedBuildHasStrategyIDs: a heap-instrumented build records
// no object IDs itself; recordIDs, which a heap profiling run calls before
// the run, records exactly the IDs each given strategy assigns. A
// CU-instrumented build records none.
func TestInstrumentedBuildHasStrategyIDs(t *testing.T) {
	p := buildApp(t)
	img, err := Build(p, Options{
		Kind: KindInstrumented, Compiler: graal.DefaultConfig(),
		Instr: graal.InstrHeap, BuildSeed: 3,
		HeapStrategy: core.HeapStrategyByName(core.StrategyHeapPath),
	})
	if err != nil {
		t.Fatal(err)
	}
	if img.Numberings == nil {
		t.Fatal("heap-instrumented build lacks path numberings")
	}
	if img.StrategyIDs != nil {
		t.Fatalf("build recorded the IDs of %d strategies", len(img.StrategyIDs))
	}
	img.recordIDs(core.HeapStrategies())
	for _, s := range core.HeapStrategies() {
		want := s.AssignIDs(img.Snapshot)
		ids := img.StrategyIDs[s.Name()]
		if len(ids) != len(img.Snapshot.Objects) {
			t.Fatalf("%s: %d ids for %d objects", s.Name(), len(ids), len(img.Snapshot.Objects))
		}
		for _, o := range img.Snapshot.Objects {
			id, ok := img.StrategyIDOfHandle(s.Name(), img.ObjectHandle(o))
			if !ok || id != want[o] || ids[o.SeqID()] != want[o] {
				t.Fatalf("%s: object %d records %#x, want %#x", s.Name(), o.SeqID(), id, want[o])
			}
		}
		if _, ok := img.StrategyIDOfHandle(s.Name(), 0); ok {
			t.Errorf("%s: handle 0 translated", s.Name())
		}
	}

	cu, err := Build(p, Options{
		Kind: KindInstrumented, Compiler: graal.DefaultConfig(),
		Instr: graal.InstrCU, BuildSeed: 3, HeapStrategy: core.HeapStrategyByName(core.StrategyHeapPath),
	})
	if err != nil {
		t.Fatal(err)
	}
	if cu.StrategyIDs != nil {
		t.Errorf("cu-instrumented build recorded the IDs of %d strategies", len(cu.StrategyIDs))
	}
	if _, ok := cu.StrategyIDOfHandle(core.StrategyHeapPath, 1); ok {
		t.Error("cu-instrumented build translated a handle")
	}
}

func TestBuildSeedChangesEncounterOrder(t *testing.T) {
	p := buildApp(t)
	a, err := Build(p, Options{Kind: KindRegular, Compiler: graal.DefaultConfig(), BuildSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(p, Options{Kind: KindRegular, Compiler: graal.DefaultConfig(), BuildSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The object count may legitimately differ slightly (folding), and the
	// build salt guarantees some content differs. Check that the two
	// builds are not identical in their Data objects' salted fields.
	fieldOf := func(img *Image) int64 {
		for _, o := range img.Snapshot.Objects {
			if o.Class != nil && o.Class.Name == "Data" {
				return o.Slots[1].Int() // pad0 = buildsalt
			}
		}
		return 0
	}
	if fieldOf(a) == fieldOf(b) {
		t.Error("build salt identical across seeds")
	}
}

func TestProfilingRunTimeExceedsPlainRun(t *testing.T) {
	p := buildApp(t)
	reg, err := Build(p, regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	base := runFaults(t, reg)
	res, err := BuildOptimized(p, PipelineOptions{
		Compiler:         graal.DefaultConfig(),
		Strategy:         core.StrategyMethod,
		InstrumentedSeed: 5,
		OptimizedSeed:    6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs[0].Time <= base.CPUTime {
		t.Errorf("instrumented run %v not slower than plain CPU time %v", res.Runs[0].Time, base.CPUTime)
	}
}
