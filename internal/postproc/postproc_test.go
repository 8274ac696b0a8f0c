package postproc

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"nimage/internal/graal"
	"nimage/internal/heap"
	"nimage/internal/ir"
	"nimage/internal/profiler"
	"nimage/internal/vm"
)

// buildCalls constructs Main.main -> {a, b, a} with field accesses in b.
func buildCalls(t *testing.T) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("calls")
	b.Class(ir.StringClass)
	c := b.Class("C").Field("x", ir.Int())
	c.Static("obj", ir.Ref("C"))

	am := c.StaticMethod("a", 0, ir.Void())
	am.Entry().RetVoid()

	bm := c.StaticMethod("b", 0, ir.Int())
	be := bm.Entry()
	o := be.GetStatic("C", "obj")
	be.Ret(be.GetField(o, "C", "x"))

	mm := c.StaticMethod("main", 0, ir.Void())
	me := mm.Entry()
	me.CallVoid("C", "a")
	me.Call("C", "b")
	me.CallVoid("C", "a")
	me.RetVoid()
	b.SetEntry("C", "main")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// trace runs the program under a tracer and returns everything postproc
// needs.
func trace(t *testing.T, p *ir.Program, kind graal.Instrumentation, prep func(*vm.Machine, *profiler.Tracer)) ([]profiler.ThreadTrace, *profiler.MethodTable, *profiler.Numberings) {
	t.Helper()
	table := profiler.NewMethodTable(p.Methods())
	nb := table.Numberings(0)
	tr := profiler.NewTracer(kind, profiler.DumpOnFull)
	tr.MethodIdx = table.Index
	tr.Numberings = nb
	mach := vm.New(p)
	if prep != nil {
		prep(mach, tr)
	}
	mach.Hooks = tr.Hooks()
	if err := mach.RunProgram(); err != nil {
		t.Fatal(err)
	}
	return tr.Finish(false), table, nb
}

func TestCUOrderProfile(t *testing.T) {
	p := buildCalls(t)
	prep := func(m *vm.Machine, tr *profiler.Tracer) {
		m.Statics.Set(p.Class("C").LookupStatic("obj"), heap.RefVal(heap.NewObject(p.Class("C"))))
	}
	traces, table, nb := trace(t, p, graal.InstrCU, prep)
	a := NewCUOrderAnalysis()
	if err := Dispatch(traces, table, nb, a); err != nil {
		t.Fatal(err)
	}
	want := []string{"C.main(0)", "C.a(0)", "C.b(0)"}
	if !reflect.DeepEqual(a.Profile(), want) {
		t.Fatalf("profile = %v, want %v", a.Profile(), want)
	}
}

func TestMethodOrderProfileDedups(t *testing.T) {
	p := buildCalls(t)
	prep := func(m *vm.Machine, tr *profiler.Tracer) {
		m.Statics.Set(p.Class("C").LookupStatic("obj"), heap.RefVal(heap.NewObject(p.Class("C"))))
	}
	traces, table, nb := trace(t, p, graal.InstrMethod, prep)
	a := NewMethodOrderAnalysis()
	if err := Dispatch(traces, table, nb, a); err != nil {
		t.Fatal(err)
	}
	// a called twice: appears once.
	want := []string{"C.main(0)", "C.a(0)", "C.b(0)"}
	if !reflect.DeepEqual(a.Profile(), want) {
		t.Fatalf("profile = %v, want %v", a.Profile(), want)
	}
}

func TestHeapOrderProfileTranslation(t *testing.T) {
	p := buildCalls(t)
	snap := heap.NewObject(p.Class("C"))
	heap.BuildSnapshot([]heap.RootRef{{Obj: snap, Reason: heap.ReasonDataSection}})
	prep := func(m *vm.Machine, tr *profiler.Tracer) {
		m.Statics.Set(p.Class("C").LookupStatic("obj"), heap.RefVal(snap))
		tr.ObjectHandle = func(o *heap.Object) uint64 {
			if o == snap {
				return 9
			}
			return 0
		}
	}
	traces, table, nb := trace(t, p, graal.InstrHeap, prep)
	a := NewHeapOrderAnalysis()
	if err := Dispatch(traces, table, nb, a); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Handles(), []uint64{9}) {
		t.Fatalf("handles = %v", a.Handles())
	}
	prof := a.Profile(func(h uint64) (uint64, bool) {
		if h == 9 {
			return 0xabc, true
		}
		return 0, false
	})
	if !reflect.DeepEqual(prof, []uint64{0xabc}) {
		t.Fatalf("profile = %v", prof)
	}
	// Untranslatable handles are dropped.
	empty := a.Profile(func(h uint64) (uint64, bool) { return 0, false })
	if len(empty) != 0 {
		t.Fatalf("untranslatable profile = %v", empty)
	}
}

func TestDispatchValidatesAccessCounts(t *testing.T) {
	p := buildCalls(t)
	table := profiler.NewMethodTable(p.Methods())
	nb := table.Numberings(0)
	// Forge a path record with a wrong access count.
	bm := p.Class("C").DeclaredMethod("b")
	bad := []profiler.ThreadTrace{{TID: 0, Words: []uint64{
		uint64(table.Index[bm])<<3 | 3, 0, 99,
	}}}
	err := Dispatch(bad, table, nb, NewHeapOrderAnalysis())
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		// Either truncated (no 99 words) or count mismatch is acceptable,
		// but it must not silently pass.
		if err == nil {
			t.Fatal("forged record accepted")
		}
	}
}

func TestDispatchRejectsBadTag(t *testing.T) {
	p := buildCalls(t)
	table := profiler.NewMethodTable(p.Methods())
	bad := []profiler.ThreadTrace{{TID: 0, Words: []uint64{7}}}
	if err := Dispatch(bad, table, nil); err == nil {
		t.Fatal("invalid tag accepted")
	}
}

func TestMultiThreadConcatenationOrder(t *testing.T) {
	// Events of thread 0 come before thread 1 regardless of interleaving.
	p := buildCalls(t)
	table := profiler.NewMethodTable(p.Methods())
	am := p.Class("C").DeclaredMethod("a")
	bm := p.Class("C").DeclaredMethod("b")
	traces := []profiler.ThreadTrace{
		{TID: 0, Words: []uint64{uint64(table.Index[am])<<3 | 1}},
		{TID: 1, Words: []uint64{uint64(table.Index[bm])<<3 | 1, uint64(table.Index[am])<<3 | 1}},
	}
	a := NewCUOrderAnalysis()
	if err := Dispatch(traces, table, nil, a); err != nil {
		t.Fatal(err)
	}
	want := []string{"C.a(0)", "C.b(0)"}
	if !reflect.DeepEqual(a.Profile(), want) {
		t.Fatalf("profile = %v, want %v", a.Profile(), want)
	}
}

func TestCodeProfileCSVRoundTrip(t *testing.T) {
	in := []string{"A.f(0)", "B.g(2)", "C.h(1)"}
	var buf bytes.Buffer
	if err := WriteCodeProfile(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadCodeProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip: %v", out)
	}
	if err := WriteCodeProfile(&buf, []string{"bad\nsig"}); err == nil {
		t.Error("newline in signature accepted")
	}
}

func TestHeapProfileCSVRoundTrip(t *testing.T) {
	in := []uint64{0, 1, 0xdeadbeefcafe, 1 << 63}
	var buf bytes.Buffer
	if err := WriteHeapProfile(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadHeapProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip: %v", out)
	}
	if _, err := ReadHeapProfile(strings.NewReader("zzz\n")); err == nil {
		t.Error("garbage heap profile accepted")
	}
}

func TestPathStartEventsCarryBlocks(t *testing.T) {
	p := buildCalls(t)
	prep := func(m *vm.Machine, tr *profiler.Tracer) {
		m.Statics.Set(p.Class("C").LookupStatic("obj"), heap.RefVal(heap.NewObject(p.Class("C"))))
	}
	traces, table, nb := trace(t, p, graal.InstrHeap, prep)
	var paths int
	collect := analysisFunc(func(ev Event) {
		if ev.Kind == EvPathStart {
			paths++
			if len(ev.Blocks) == 0 {
				t.Error("path event without blocks")
			}
		}
	})
	if err := Dispatch(traces, table, nb, collect); err != nil {
		t.Fatal(err)
	}
	// main, a, b, a: four method executions, one acyclic path each.
	if paths != 4 {
		t.Errorf("paths = %d, want 4", paths)
	}
}

// analysisFunc adapts a function to the Analysis interface.
type analysisFunc func(Event)

func (analysisFunc) Name() string     { return "func" }
func (f analysisFunc) Visit(ev Event) { f(ev) }

func TestFrequencyAnalysis(t *testing.T) {
	p := buildCalls(t)
	prep := func(m *vm.Machine, tr *profiler.Tracer) {
		m.Statics.Set(p.Class("C").LookupStatic("obj"), heap.RefVal(heap.NewObject(p.Class("C"))))
	}
	traces, table, nb := trace(t, p, graal.InstrMethod, prep)
	a := NewFrequencyAnalysis()
	if err := Dispatch(traces, table, nb, a); err != nil {
		t.Fatal(err)
	}
	// main once, a twice, b once.
	if got := a.Counts()["C.a(0)"]; got != 2 {
		t.Errorf("count(a) = %d", got)
	}
	if got := a.Counts()["C.main(0)"]; got != 1 {
		t.Errorf("count(main) = %d", got)
	}
	hot := a.Hottest(2)
	if len(hot) != 2 || hot[0] != "C.a(0)" {
		t.Errorf("hottest = %v", hot)
	}
	if len(a.Hottest(100)) != 3 {
		t.Errorf("hottest(100) = %v", a.Hottest(100))
	}
}
