package profiler

import (
	"bytes"
	"reflect"
	"testing"

	"nimage/internal/graal"
	"nimage/internal/heap"
	"nimage/internal/ir"
	"nimage/internal/vm"
)

// buildBranchy builds a method with a loop containing a diamond:
//
//	static f(n): s=0; for i in [0,n): if i%2==0 { s+=i } else { s-=i }; return s
func buildBranchy(t *testing.T) (*ir.Program, *ir.Method) {
	t.Helper()
	b := ir.NewBuilder("branchy")
	b.Class(ir.StringClass)
	c := b.Class("B")
	mb := c.StaticMethod("f", 1, ir.Int())
	e := mb.Entry()
	s := e.ConstInt(0)
	zero := e.ConstInt(0)
	two := e.ConstInt(2)
	exit := e.For(zero, mb.Param(0), 1, func(body *ir.BlockBuilder, i ir.Reg) *ir.BlockBuilder {
		rem := body.Arith(ir.Rem, i, two)
		z := body.ConstInt(0)
		cond := body.Cmp(ir.Eq, rem, z)
		return body.IfElse(cond,
			func(th *ir.BlockBuilder) *ir.BlockBuilder {
				th.ArithTo(s, ir.Add, s, i)
				return th
			},
			func(el *ir.BlockBuilder) *ir.BlockBuilder {
				el.ArithTo(s, ir.Sub, s, i)
				return el
			})
	})
	exit.Ret(s)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p, p.Class("B").DeclaredMethod("f")
}

func TestNumberingPathsAreUnique(t *testing.T) {
	_, m := buildBranchy(t)
	nb := ComputeNumbering(m, 0)
	if nb.TotalPaths == 0 {
		t.Fatal("no paths")
	}
	seen := make(map[string]uint64)
	for id := uint64(0); id < nb.TotalPaths; id++ {
		seq, err := nb.Decode(id)
		if err != nil {
			t.Fatalf("Decode(%d): %v", id, err)
		}
		key := ""
		for _, b := range seq {
			key += string(rune('A' + b))
		}
		if prev, dup := seen[key]; dup {
			t.Fatalf("ids %d and %d decode to the same path %v", prev, id, seq)
		}
		seen[key] = id
	}
}

func TestNumberingBackEdgesCut(t *testing.T) {
	_, m := buildBranchy(t)
	nb := ComputeNumbering(m, 0)
	cuts := 0
	for _, b := range m.Blocks {
		for _, w := range []int32{b.Term.Then, b.Term.Else} {
			if b.Term.Op != ir.TermReturn && nb.IsCut(int(b.Index), int(w)) {
				cuts++
			}
		}
	}
	if cuts == 0 {
		t.Fatal("loop produced no cut edge")
	}
}

func TestCapacityCutting(t *testing.T) {
	// A straight-line chain of k diamonds has 2^k paths; with maxPaths 4
	// capacity cuts must bound every start block's path count.
	b := ir.NewBuilder("diamonds")
	b.Class(ir.StringClass)
	c := b.Class("D")
	mb := c.StaticMethod("f", 1, ir.Int())
	blk := mb.Entry()
	acc := blk.ConstInt(0)
	for k := 0; k < 8; k++ {
		kk := blk.ConstInt(int64(k))
		cond := blk.Cmp(ir.Gt, mb.Param(0), kk)
		blk = blk.IfElse(cond,
			func(th *ir.BlockBuilder) *ir.BlockBuilder {
				th.ArithTo(acc, ir.Add, acc, kk)
				return th
			},
			func(el *ir.BlockBuilder) *ir.BlockBuilder {
				el.ArithTo(acc, ir.Sub, acc, kk)
				return el
			})
	}
	blk.Ret(acc)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := p.Class("D").DeclaredMethod("f")

	unlimited := ComputeNumbering(m, 1<<40)
	if unlimited.TotalPaths < 256 {
		t.Fatalf("unbounded paths = %d, want >= 256", unlimited.TotalPaths)
	}
	bounded := ComputeNumbering(m, 4)
	for _, s := range bounded.starts {
		if bounded.numPaths[s] > 4 {
			t.Errorf("start %d has %d paths > maxPaths 4", s, bounded.numPaths[s])
		}
	}
	// Every id must still decode.
	for id := uint64(0); id < bounded.TotalPaths; id++ {
		if _, err := bounded.Decode(id); err != nil {
			t.Fatalf("Decode(%d): %v", id, err)
		}
	}
}

func TestDecodeOutOfRange(t *testing.T) {
	_, m := buildBranchy(t)
	nb := ComputeNumbering(m, 0)
	if _, err := nb.Decode(nb.TotalPaths); err == nil {
		t.Fatal("out-of-range id decoded")
	}
}

// runTraced executes method f(arg) under a tracer of the given kind and
// also records ground truth via independent hooks.
func runTraced(t *testing.T, p *ir.Program, m *ir.Method, kind graal.Instrumentation, mode DumpMode, arg int64) (*Tracer, []ThreadTrace, [][]int) {
	t.Helper()
	table := NewMethodTable(p.Methods())
	tr := NewTracer(kind, mode)
	tr.MethodIdx = table.Index
	tr.Numberings = table.Numberings(0)

	// Ground truth: block sequences per method invocation (stack-shaped).
	var truth [][]int
	var stack []int // indices into truth
	truthHooks := vm.Hooks{
		OnMethodEnter: func(tid int, mm *ir.Method) {
			truth = append(truth, nil)
			stack = append(stack, len(truth)-1)
		},
		OnMethodExit: func(tid int, mm *ir.Method) {
			stack = stack[:len(stack)-1]
		},
		OnBlock: func(tid int, mm *ir.Method, b int) {
			i := stack[len(stack)-1]
			truth[i] = append(truth[i], b)
		},
	}
	mach := vm.New(p)
	mach.Hooks = vm.ComposeHooks(tr.Hooks(), truthHooks)
	if _, err := mach.RunMethod(m, heap.IntVal(arg)); err != nil {
		t.Fatal(err)
	}
	traces := tr.Finish(false)
	return tr, traces, truth
}

func TestHeapTraceDecodesToExecutedBlocks(t *testing.T) {
	p, m := buildBranchy(t)
	tr, traces, truth := runTraced(t, p, m, graal.InstrHeap, DumpOnFull, 7)
	if len(traces) != 1 {
		t.Fatalf("threads = %d", len(traces))
	}
	// Decode the trace: concatenated paths of the single invocation must
	// equal the executed block sequence.
	words := traces[0].Words
	var decoded []int
	for i := 0; i < len(words); {
		tag := words[i] & 7
		if tag != tagPathHeader {
			t.Fatalf("unexpected tag %d", tag)
		}
		midx := int(words[i] >> 3)
		pathID := words[i+1]
		nAcc := int(words[i+2])
		i += 3 + nAcc
		mm := tr.Numberings.Of(methodAt(tr, midx))
		seq, err := mm.Decode(pathID)
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, seq...)
	}
	if len(truth) != 1 {
		t.Fatalf("invocations = %d", len(truth))
	}
	if !reflect.DeepEqual(decoded, truth[0]) {
		t.Fatalf("decoded blocks %v != executed %v", decoded, truth[0])
	}
}

// methodAt finds the method with the given index in the tracer's table.
func methodAt(tr *Tracer, idx int) *ir.Method {
	for m, i := range tr.MethodIdx {
		if i == idx {
			return m
		}
	}
	return nil
}

// buildAccessor builds a method performing field accesses on a snapshot
// object and on a fresh object.
func buildAccessor(t *testing.T) (*ir.Program, *ir.Method) {
	t.Helper()
	b := ir.NewBuilder("acc")
	b.Class(ir.StringClass)
	c := b.Class("A").Field("x", ir.Int())
	c.Static("snap", ir.Ref("A"))
	mb := c.StaticMethod("f", 0, ir.Int())
	e := mb.Entry()
	o := e.GetStatic("A", "snap")
	v1 := e.GetField(o, "A", "x")
	fresh := e.New("A")
	k := e.ConstInt(5)
	e.PutField(fresh, "A", "x", k)
	v2 := e.GetField(fresh, "A", "x")
	e.Ret(e.Arith(ir.Add, v1, v2))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p, p.Class("A").DeclaredMethod("f")
}

func TestHeapTraceRecordsObjectHandles(t *testing.T) {
	p, m := buildAccessor(t)
	table := NewMethodTable(p.Methods())
	tr := NewTracer(graal.InstrHeap, DumpOnFull)
	tr.MethodIdx = table.Index
	tr.Numberings = table.Numberings(0)

	// One snapshot object with handle 42.
	snapObj := heap.NewObject(p.Class("A"))
	heap.BuildSnapshot([]heap.RootRef{{Obj: snapObj, Reason: heap.ReasonDataSection}})
	tr.ObjectHandle = func(o *heap.Object) uint64 {
		if o == snapObj {
			return 42
		}
		return 0
	}
	mach := vm.New(p)
	mach.Statics.Set(p.Class("A").LookupStatic("snap"), heap.RefVal(snapObj))
	mach.Hooks = tr.Hooks()
	if _, err := mach.RunMethod(m); err != nil {
		t.Fatal(err)
	}
	traces := tr.Finish(false)
	words := traces[0].Words
	if len(words) < 3 {
		t.Fatalf("trace too short: %v", words)
	}
	nAcc := int(words[2])
	// Accesses: snapObj.x read (42), fresh put (0), fresh get (0).
	if nAcc != 3 {
		t.Fatalf("access count = %d, want 3 (words %v)", nAcc, words)
	}
	handles := words[3 : 3+nAcc]
	want := []uint64{42, 0, 0}
	if !reflect.DeepEqual([]uint64(handles), want) {
		t.Fatalf("handles = %v, want %v", handles, want)
	}
	// The path's static access count must agree with the recorded count.
	nb := tr.Numberings.Of(m)
	seq, err := nb.Decode(words[1])
	if err != nil {
		t.Fatal(err)
	}
	if nb.PathAccessCount(seq) != nAcc {
		t.Fatalf("static access count %d != recorded %d", nb.PathAccessCount(seq), nAcc)
	}
}

func TestCUAndMethodTraces(t *testing.T) {
	p, m := buildBranchy(t)
	_, cuTraces, _ := runTraced(t, p, m, graal.InstrCU, DumpOnFull, 3)
	_, mTraces, _ := runTraced(t, p, m, graal.InstrMethod, DumpOnFull, 3)
	// Single non-inlined method: one CU entry and one method entry.
	if len(cuTraces[0].Words) != 1 || cuTraces[0].Words[0]&7 != tagCUEntry {
		t.Errorf("cu trace = %v", cuTraces[0].Words)
	}
	if len(mTraces[0].Words) != 1 || mTraces[0].Words[0]&7 != tagMethodEntry {
		t.Errorf("method trace = %v", mTraces[0].Words)
	}
}

func TestDumpOnFullLosesUnflushedOnKill(t *testing.T) {
	p, m := buildBranchy(t)
	table := NewMethodTable(p.Methods())

	run := func(mode DumpMode, killed bool) int {
		tr := NewTracer(graal.InstrCU, mode)
		tr.MethodIdx = table.Index
		tr.BufferWords = 8
		mach := vm.New(p)
		mach.Hooks = tr.Hooks()
		if _, err := mach.RunMethod(m, heap.IntVal(2)); err != nil {
			t.Fatal(err)
		}
		traces := tr.Finish(killed)
		n := 0
		for _, tt := range traces {
			n += len(tt.Words)
		}
		return n
	}
	if got := run(DumpOnFull, true); got != 0 {
		t.Errorf("killed dump-on-full kept %d words, want 0 (single small buffer)", got)
	}
	if got := run(DumpOnFull, false); got == 0 {
		t.Error("normal termination lost events")
	}
	if got := run(MemoryMapped, true); got == 0 {
		t.Error("memory-mapped mode lost events on kill")
	}
}

func TestProfilingChargesOverhead(t *testing.T) {
	p, m := buildBranchy(t)
	table := NewMethodTable(p.Methods())

	base := vm.New(p)
	if _, err := base.RunMethod(m, heap.IntVal(50)); err != nil {
		t.Fatal(err)
	}

	for _, kind := range []graal.Instrumentation{graal.InstrCU, graal.InstrMethod, graal.InstrHeap} {
		tr := NewTracer(kind, DumpOnFull)
		tr.MethodIdx = table.Index
		tr.Numberings = table.Numberings(0)
		mach := vm.New(p)
		tr.AddCycles = func(c int64) { mach.Cycles += c }
		mach.Hooks = tr.Hooks()
		if _, err := mach.RunMethod(m, heap.IntVal(50)); err != nil {
			t.Fatal(err)
		}
		if mach.Cycles <= base.Cycles {
			t.Errorf("%v instrumentation added no overhead: %d vs %d", kind, mach.Cycles, base.Cycles)
		}
	}
}

func TestMethodTableStable(t *testing.T) {
	p, _ := buildBranchy(t)
	a := NewMethodTable(p.Methods())
	// Reversed input order must give the same indices.
	ms := p.Methods()
	for i, j := 0, len(ms)-1; i < j; i, j = i+1, j-1 {
		ms[i], ms[j] = ms[j], ms[i]
	}
	b := NewMethodTable(ms)
	for m, i := range a.Index {
		if b.Index[m] != i {
			t.Fatalf("index of %s differs: %d vs %d", m.Signature(), i, b.Index[m])
		}
	}
	if a.Signature(0) == "" || a.Method(len(a.Methods)) != nil {
		t.Error("accessor edge cases")
	}
}

func TestTraceIORoundTrip(t *testing.T) {
	in := []ThreadTrace{
		{TID: 0, Words: []uint64{1, 2, 3, 1 << 40}},
		{TID: 3, Words: nil},
		{TID: 7, Words: []uint64{0}},
	}
	var buf bytes.Buffer
	if err := WriteTraces(&buf, graal.InstrHeap, MemoryMapped, in); err != nil {
		t.Fatal(err)
	}
	kind, mode, out, err := ReadTraces(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != graal.InstrHeap || mode != MemoryMapped {
		t.Errorf("kind/mode = %v/%v", kind, mode)
	}
	if len(out) != len(in) {
		t.Fatalf("threads = %d", len(out))
	}
	for i := range in {
		if out[i].TID != in[i].TID || !reflect.DeepEqual(out[i].Words, in[i].Words) {
			t.Errorf("thread %d mismatch: %+v vs %+v", i, out[i], in[i])
		}
	}
}

func TestTraceIORejectsGarbage(t *testing.T) {
	if _, _, _, err := ReadTraces(bytes.NewReader([]byte("XXXX0000"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, _, _, err := ReadTraces(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}
