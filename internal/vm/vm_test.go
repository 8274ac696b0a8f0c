package vm

import (
	"strings"
	"testing"

	"nimage/internal/heap"
	"nimage/internal/ir"
)

// buildFib constructs: class F { static fib(n) = n<2 ? n : fib(n-1)+fib(n-2) }.
func buildFib(t *testing.T) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("fib")
	b.Class(ir.StringClass)
	c := b.Class("F")
	fb := c.StaticMethod("fib", 1, ir.Int())
	e := fb.Entry()
	two := e.ConstInt(2)
	cond := e.Cmp(ir.Lt, fb.Param(0), two)
	base := fb.NewBlock()
	rec := fb.NewBlock()
	e.If(cond, base, rec)
	base.Ret(fb.Param(0))
	one := rec.ConstInt(1)
	n1 := rec.Arith(ir.Sub, fb.Param(0), one)
	t2 := rec.ConstInt(2)
	n2 := rec.Arith(ir.Sub, fb.Param(0), t2)
	a := rec.Call("F", "fib", n1)
	bb := rec.Call("F", "fib", n2)
	rec.Ret(rec.Arith(ir.Add, a, bb))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFib(t *testing.T) {
	p := buildFib(t)
	m := New(p)
	ten := heap.IntVal(10)
	got, err := m.RunMethod(p.Class("F").DeclaredMethod("fib"), ten)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 55 {
		t.Fatalf("fib(10) = %d, want 55", got.Int())
	}
	if m.Steps == 0 || m.Cycles <= m.Steps {
		t.Errorf("cost accounting: steps=%d cycles=%d", m.Steps, m.Cycles)
	}
}

func TestLoopAndArrays(t *testing.T) {
	// sieve-of-eratosthenes-ish: count multiples written into an array.
	b := ir.NewBuilder("arr")
	b.Class(ir.StringClass)
	c := b.Class("A")
	mb := c.StaticMethod("run", 1, ir.Int())
	e := mb.Entry()
	n := mb.Param(0)
	arr := e.NewArray(ir.Int(), n)
	zero := e.ConstInt(0)
	exit := e.For(zero, n, 1, func(body *ir.BlockBuilder, i ir.Reg) *ir.BlockBuilder {
		v := body.Arith(ir.Mul, i, i)
		body.ASet(arr, i, v)
		return body
	})
	acc := exit.ConstInt(0)
	exit2 := exit.For(zero, n, 1, func(body *ir.BlockBuilder, i ir.Reg) *ir.BlockBuilder {
		v := body.AGet(arr, i)
		body.ArithTo(acc, ir.Add, acc, v)
		return body
	})
	exit2.Ret(acc)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	got, err := m.RunMethod(p.Class("A").DeclaredMethod("run"), heap.IntVal(5))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 0+1+4+9+16 {
		t.Fatalf("sum of squares = %d", got.Int())
	}
}

func TestVirtualDispatch(t *testing.T) {
	b := ir.NewBuilder("virt")
	b.Class(ir.StringClass)
	base := b.Class("Animal")
	bm := base.Method("noise", 0, ir.Int())
	be := bm.Entry()
	be.Ret(be.ConstInt(1))
	dog := b.Class("Dog").Extends("Animal")
	dm := dog.Method("noise", 0, ir.Int())
	de := dm.Entry()
	de.Ret(de.ConstInt(2))
	b.Class("Cat").Extends("Animal") // inherits noise

	main := b.Class("Main")
	mm := main.StaticMethod("main", 0, ir.Int())
	e := mm.Entry()
	d := e.New("Dog")
	ct := e.New("Cat")
	vd := e.CallVirt("Animal", "noise", d)
	vc := e.CallVirt("Animal", "noise", ct)
	ten := e.ConstInt(10)
	s := e.Arith(ir.Mul, vd, ten)
	e.Ret(e.Arith(ir.Add, s, vc))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	got, err := m.RunMethod(p.Class("Main").DeclaredMethod("main"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 21 {
		t.Fatalf("dispatch result = %d, want 21", got.Int())
	}
}

func TestFieldsAndStatics(t *testing.T) {
	b := ir.NewBuilder("fs")
	b.Class(ir.StringClass)
	c := b.Class("Counter").Field("n", ir.Int())
	c.Static("last", ir.Ref("Counter"))
	mb := c.StaticMethod("bump", 0, ir.Int())
	e := mb.Entry()
	o := e.New("Counter")
	k := e.ConstInt(41)
	e.PutField(o, "Counter", "n", k)
	v := e.GetField(o, "Counter", "n")
	one := e.ConstInt(1)
	v2 := e.Arith(ir.Add, v, one)
	e.PutField(o, "Counter", "n", v2)
	e.PutStatic("Counter", "last", o)
	back := e.GetStatic("Counter", "last")
	e.Ret(e.GetField(back, "Counter", "n"))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	got, err := m.RunMethod(p.Class("Counter").DeclaredMethod("bump"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 42 {
		t.Fatalf("got %d", got.Int())
	}
}

func TestStringsAndIntrinsics(t *testing.T) {
	b := ir.NewBuilder("str")
	b.Class(ir.StringClass)
	c := b.Class("S")
	mb := c.StaticMethod("run", 0, ir.Int())
	e := mb.Entry()
	h := e.Str("hello ")
	w := e.Str("world")
	hw := e.Intrinsic(ir.IntrinsicConcat, h, w)
	e.Ret(e.Intrinsic(ir.IntrinsicStrLen, hw))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	got, err := m.RunMethod(p.Class("S").DeclaredMethod("run"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 11 {
		t.Fatalf("strlen = %d", got.Int())
	}
	// The two literals are interned.
	if n := len(m.Interns.All()); n != 2 {
		t.Errorf("interned = %d", n)
	}
}

func TestTrapsCarryContext(t *testing.T) {
	cases := []struct {
		name string
		make func(e *ir.BlockBuilder, mb *ir.MethodBuilder)
		want string
	}{
		{
			name: "div by zero",
			make: func(e *ir.BlockBuilder, mb *ir.MethodBuilder) {
				a := e.ConstInt(1)
				z := e.ConstInt(0)
				e.Ret(e.Arith(ir.Div, a, z))
			},
			want: "division by zero",
		},
		{
			name: "null field",
			make: func(e *ir.BlockBuilder, mb *ir.MethodBuilder) {
				n := e.Null()
				e.Ret(e.GetField(n, "T", "x"))
			},
			want: "null field load",
		},
		{
			name: "index out of bounds",
			make: func(e *ir.BlockBuilder, mb *ir.MethodBuilder) {
				two := e.ConstInt(2)
				arr := e.NewArray(ir.Int(), two)
				five := e.ConstInt(5)
				e.Ret(e.AGet(arr, five))
			},
			want: "out of bounds",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := ir.NewBuilder("trap")
			b.Class(ir.StringClass)
			c := b.Class("T").Field("x", ir.Int())
			mb := c.StaticMethod("run", 0, ir.Int())
			tc.make(mb.Entry(), mb)
			p, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			m := New(p)
			_, err = m.RunMethod(p.Class("T").DeclaredMethod("run"))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want containing %q", err, tc.want)
			}
			if !strings.Contains(err.Error(), "T.run(0)") {
				t.Errorf("trap lacks method context: %v", err)
			}
		})
	}
}

// buildThreaded: main spawns two workers that each accumulate locally and
// publish into their own slot of a shared static array, then responds.
func buildThreaded(t *testing.T) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("mt")
	b.Class(ir.StringClass)
	c := b.Class("W")
	c.Static("out", ir.Array(ir.Int()))
	setup := c.StaticMethod("setup", 0, ir.Void())
	se := setup.Entry()
	two := se.ConstInt(2)
	se.PutStatic("W", "out", se.NewArray(ir.Int(), two))
	se.RetVoid()

	w := c.StaticMethod("work", 2, ir.Void()) // (slot, weight)
	we := w.Entry()
	acc := we.ConstInt(0)
	zero := we.ConstInt(0)
	hi := we.ConstInt(2000)
	exit := we.For(zero, hi, 1, func(body *ir.BlockBuilder, i ir.Reg) *ir.BlockBuilder {
		body.ArithTo(acc, ir.Add, acc, w.Param(1))
		return body
	})
	arr := exit.GetStatic("W", "out")
	exit.ASet(arr, w.Param(0), acc)
	exit.RetVoid()

	main := b.Class("Main")
	mm := main.StaticMethod("main", 0, ir.Void())
	e := mm.Entry()
	e.CallVoid("W", "setup")
	s0 := e.ConstInt(0)
	s1 := e.ConstInt(1)
	one := e.ConstInt(1)
	two2 := e.ConstInt(2)
	e.Spawn("W.work", s0, one)
	e.Spawn("W.work", s1, two2)
	e.IntrinsicVoid(ir.IntrinsicRespond)
	e.RetVoid()
	b.SetEntry("Main", "main")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func workerOutputs(t *testing.T, m *Machine, p *ir.Program) (int64, int64) {
	t.Helper()
	arr := m.Statics.Get(p.Class("W").LookupStatic("out")).Ref
	if arr == nil {
		t.Fatal("out array not published")
	}
	return arr.GetElem(0).Int(), arr.GetElem(1).Int()
}

func TestThreadsRunToCompletion(t *testing.T) {
	p := buildThreaded(t)
	m := New(p)
	if err := m.RunProgram(); err != nil {
		t.Fatal(err)
	}
	a, b2 := workerOutputs(t, m, p)
	if a != 2000 || b2 != 4000 {
		t.Fatalf("worker outputs = %d, %d", a, b2)
	}
	if !m.Responded {
		t.Error("respond not recorded")
	}
}

func TestStopOnRespondKillsWorkers(t *testing.T) {
	p := buildThreaded(t)
	m := New(p)
	m.StopOnRespond = true
	if err := m.RunProgram(); err != nil {
		t.Fatal(err)
	}
	a, b2 := workerOutputs(t, m, p)
	if a != 0 || b2 != 0 {
		t.Fatalf("workers finished despite SIGKILL: %d, %d", a, b2)
	}
	if m.CyclesAtRespond == 0 || m.CyclesAtRespond > m.Cycles {
		t.Errorf("CyclesAtRespond = %d (total %d)", m.CyclesAtRespond, m.Cycles)
	}
}

func TestDeterministicScheduling(t *testing.T) {
	run := func() (int64, int64) {
		p := buildThreaded(t)
		m := New(p)
		if err := m.RunProgram(); err != nil {
			t.Fatal(err)
		}
		return m.Steps, m.Cycles
	}
	s1, c1 := run()
	s2, c2 := run()
	if s1 != s2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", s1, c1, s2, c2)
	}
}

func TestHooksFireWithInlining(t *testing.T) {
	p := buildFib(t)
	m := New(p)
	var cuEntries, methodEntries, blocks int
	m.Hooks = Hooks{
		// Pretend every callee is inlined into the entry CU.
		InlineOf:      func(ctx, callee *ir.Method) bool { return true },
		OnEnterCU:     func(tid int, root *ir.Method) { cuEntries++ },
		OnMethodEnter: func(tid int, mm *ir.Method) { methodEntries++ },
		OnBlock:       func(tid int, mm *ir.Method, b int) { blocks++ },
	}
	if _, err := m.RunMethod(p.Class("F").DeclaredMethod("fib"), heap.IntVal(6)); err != nil {
		t.Fatal(err)
	}
	if cuEntries != 1 {
		t.Errorf("cu entries = %d, want 1 (all inlined)", cuEntries)
	}
	if methodEntries < 10 {
		t.Errorf("method entries = %d, want many", methodEntries)
	}
	if blocks <= methodEntries {
		t.Errorf("blocks = %d, methods = %d", blocks, methodEntries)
	}
}

func TestAccessHookFires(t *testing.T) {
	b := ir.NewBuilder("acc")
	b.Class(ir.StringClass)
	c := b.Class("A").Field("x", ir.Int())
	mb := c.StaticMethod("run", 0, ir.Int())
	e := mb.Entry()
	o := e.New("A")
	k := e.ConstInt(3)
	e.PutField(o, "A", "x", k)
	e.Ret(e.GetField(o, "A", "x"))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	var accesses int
	m.Hooks.OnAccess = func(tid int, o *heap.Object, instr bool) { accesses++ }
	if _, err := m.RunMethod(p.Class("A").DeclaredMethod("run")); err != nil {
		t.Fatal(err)
	}
	if accesses != 2 {
		t.Errorf("accesses = %d, want 2", accesses)
	}
}

// TestSnapshotAccessHookOnlySnapshotObjects: OnSnapshotAccess fires for
// the accesses to a snapshot object, each time before OnAccess, and not for
// a runtime allocation, while OnAccess fires for all of them.
func TestSnapshotAccessHookOnlySnapshotObjects(t *testing.T) {
	b := ir.NewBuilder("snapacc")
	b.Class(ir.StringClass)
	c := b.Class("A").Field("x", ir.Int()).Static("snap", ir.Ref("A"))
	mb := c.StaticMethod("run", 0, ir.Int())
	e := mb.Entry()
	s := e.GetStatic("A", "snap")
	v := e.GetField(s, "A", "x")
	o := e.New("A")
	e.PutField(o, "A", "x", v)
	e.Ret(e.GetField(o, "A", "x"))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	snapObj := heap.NewObject(p.Class("A"))
	heap.BuildSnapshot([]heap.RootRef{{Obj: snapObj, Reason: "A.snap"}})
	m := New(p)
	m.Statics.Set(p.Class("A").LookupStatic("snap"), heap.RefVal(snapObj))
	var log []string
	tag := func(kind string, o *heap.Object) string {
		if o == snapObj {
			return kind + ":snap"
		}
		return kind + ":new"
	}
	m.Hooks.OnSnapshotAccess = func(tid int, o *heap.Object, instr bool) { log = append(log, tag("S", o)) }
	m.Hooks.OnAccess = func(tid int, o *heap.Object, instr bool) { log = append(log, tag("A", o)) }
	if _, err := m.RunMethod(p.Class("A").DeclaredMethod("run")); err != nil {
		t.Fatal(err)
	}
	want := "S:snap A:snap A:new A:new"
	if got := strings.Join(log, " "); got != want {
		t.Errorf("hook events %q, want %q", got, want)
	}
}

func TestBuildSaltDiffersAcrossBuilds(t *testing.T) {
	b := ir.NewBuilder("salt")
	b.Class(ir.StringClass)
	c := b.Class("A")
	mb := c.StaticMethod("run", 0, ir.Int())
	e := mb.Entry()
	e.Ret(e.Intrinsic(ir.IntrinsicBuildSalt))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	run := func(salt uint64) int64 {
		m := New(p)
		m.BuildSalt = salt
		v, err := m.RunMethod(p.Class("A").DeclaredMethod("run"))
		if err != nil {
			t.Fatal(err)
		}
		return v.Int()
	}
	if run(1) == run(2) {
		t.Error("different salts produced equal values")
	}
	if run(7) != run(7) {
		t.Error("same salt not deterministic")
	}
}

func TestJournalRollback(t *testing.T) {
	b := ir.NewBuilder("j")
	b.Class(ir.StringClass)
	c := b.Class("A").Field("x", ir.Int())
	c.Static("s", ir.Int())
	mb := c.StaticMethod("mutate", 1, ir.Void())
	e := mb.Entry()
	k := e.ConstInt(99)
	e.PutField(mb.Param(0), "A", "x", k)
	e.PutStatic("A", "s", k)
	e.Intrinsic(ir.IntrinsicIntern, e.Str("runtime-literal"))
	e.RetVoid()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)

	// Pre-existing snapshot object and static value.
	o := heap.NewObject(p.Class("A"))
	snap := heap.BuildSnapshot([]heap.RootRef{{Obj: o, Reason: heap.ReasonDataSection}})
	xf := p.Class("A").LookupField("x")
	o.SetField(xf, heap.IntVal(7))
	sf := p.Class("A").LookupStatic("s")
	m.Statics.Set(sf, heap.IntVal(5))
	baseInterns := len(m.Interns.All())

	m.EnableJournal(snap)
	if _, err := m.RunMethod(p.Class("A").DeclaredMethod("mutate"), heap.RefVal(o)); err != nil {
		t.Fatal(err)
	}
	if o.GetField(xf).Int() != 99 || m.Statics.Get(sf).Int() != 99 {
		t.Fatal("mutation did not happen")
	}
	m.Rollback()
	if got := o.GetField(xf).Int(); got != 7 {
		t.Errorf("field not rolled back: %d", got)
	}
	if got := m.Statics.Get(sf).Int(); got != 5 {
		t.Errorf("static not rolled back: %d", got)
	}
	if got := len(m.Interns.All()); got != baseInterns {
		t.Errorf("interns not rolled back: %d vs %d", got, baseInterns)
	}
}

func TestStackOverflowTrapped(t *testing.T) {
	b := ir.NewBuilder("so")
	b.Class(ir.StringClass)
	c := b.Class("R")
	mb := c.StaticMethod("loop", 0, ir.Void())
	e := mb.Entry()
	e.CallVoid("R", "loop")
	e.RetVoid()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	_, err = m.RunMethod(p.Class("R").DeclaredMethod("loop"))
	if err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Fatalf("err = %v", err)
	}
}

func TestMaxStepsGuards(t *testing.T) {
	b := ir.NewBuilder("inf")
	b.Class(ir.StringClass)
	c := b.Class("I")
	mb := c.StaticMethod("spin", 0, ir.Void())
	e := mb.Entry()
	e.Goto(e2(mb, e))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	m.MaxSteps = 10_000
	_, err = m.RunMethod(p.Class("I").DeclaredMethod("spin"))
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("err = %v", err)
	}
}

// e2 builds a block that jumps back to from, forming an infinite loop.
func e2(mb *ir.MethodBuilder, from *ir.BlockBuilder) *ir.BlockBuilder {
	loop := mb.NewBlock()
	loop.Goto(loop)
	return loop
}

func TestFloatOps(t *testing.T) {
	b := ir.NewBuilder("flt")
	b.Class(ir.StringClass)
	c := b.Class("M")
	mb := c.StaticMethod("hyp", 2, ir.Float())
	e := mb.Entry()
	a2 := e.FArith(ir.Mul, mb.Param(0), mb.Param(0))
	b2 := e.FArith(ir.Mul, mb.Param(1), mb.Param(1))
	s := e.FArith(ir.Add, a2, b2)
	e.Ret(e.Intrinsic(ir.IntrinsicSqrt, s))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	got, err := m.RunMethod(p.Class("M").DeclaredMethod("hyp"), heap.FloatVal(3), heap.FloatVal(4))
	if err != nil {
		t.Fatal(err)
	}
	if got.Float() != 5 {
		t.Fatalf("hyp(3,4) = %v", got.Float())
	}
}
