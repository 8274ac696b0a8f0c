package vm

import (
	"testing"

	"nimage/internal/heap"
	"nimage/internal/ir"
)

// TestReusedFrameRegistersReadNull frees a frame whose registers hold
// object references and reuses it for a callee with a larger register file
// (a new slice), then a smaller one (stale references sit beyond its
// registers), then one between the two (within the slice's capacity, over
// those stale references). Every register of a reused frame must read null.
func TestReusedFrameRegistersReadNull(t *testing.T) {
	m := New(buildFib(t))
	intT := ir.Int()
	obj := heap.NewArray(&intT, 1)
	small := &ir.Method{Name: "small", NumRegs: 2}
	mid := &ir.Method{Name: "mid", NumRegs: 4}
	big := &ir.Method{Name: "big", NumRegs: 8}
	dirty := func(f *frame) {
		for i := range f.regs {
			f.regs[i] = heap.RefVal(obj)
		}
		m.freeFrames = append(m.freeFrames, f)
	}

	freed := m.newFrame(mid, mid, int(ir.NoReg), 0)
	dirty(freed)
	for _, callee := range []*ir.Method{big, small, mid} {
		f := m.newFrame(callee, callee, 0, 0)
		if f != freed {
			t.Fatalf("%s: frame not taken from the free list", callee.Name)
		}
		if len(f.regs) != callee.NumRegs {
			t.Fatalf("%s: %d registers, want %d", callee.Name, len(f.regs), callee.NumRegs)
		}
		for i, v := range f.regs {
			if !v.IsNull() {
				t.Errorf("%s: register %d = %v, want null", callee.Name, i, v)
			}
		}
		if f.m != callee || f.pc != 0 || f.retReg != 0 {
			t.Errorf("%s: frame state not reset: pc %d retReg %d", callee.Name, f.pc, f.retReg)
		}
		dirty(f)
	}
}

// buildDeep builds a method deep(n) that recurses n levels, responds at
// the bottom and returns n, so StopOnRespond stops its thread with n+1
// frames on the stack.
func buildDeep(t *testing.T) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("deep")
	b.Class(ir.StringClass)
	c := b.Class("F")
	db := c.StaticMethod("deep", 1, ir.Int())
	de := db.Entry()
	bottom := de.Cmp(ir.Eq, db.Param(0), de.ConstInt(0))
	dbase, drec := db.NewBlock(), db.NewBlock()
	de.If(bottom, dbase, drec)
	dbase.IntrinsicVoid(ir.IntrinsicRespond)
	dbase.Ret(dbase.ConstInt(0))
	one := drec.ConstInt(1)
	r := drec.Call("F", "deep", drec.Arith(ir.Sub, db.Param(0), one))
	drec.Ret(drec.Arith(ir.Add, r, one))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRunAfterStopStartsClean stops a thread 40 frames deep at its
// response; the next RunMethods on the same machine must start from a
// one-frame stack, compute correctly, and get fresh, increasing tids.
func TestRunAfterStopStartsClean(t *testing.T) {
	p := buildDeep(t)
	deep := p.Class("F").DeclaredMethod("deep")
	m := New(p)
	m.StopOnRespond = true
	var tids []int
	entryDepth, maxDepth := 0, 0
	stackDepth := func() int { return len(m.threads[len(m.threads)-1].frames) }
	m.Hooks.OnEnterCU = func(tid int, root *ir.Method) {
		if len(tids) == 0 {
			entryDepth = stackDepth()
		}
		tids = append(tids, tid)
	}
	m.Hooks.OnMethodEnter = func(tid int, mm *ir.Method) { maxDepth = max(maxDepth, stackDepth()) }

	if _, err := m.RunMethod(deep, heap.IntVal(39)); err != nil {
		t.Fatal(err)
	}
	if len(m.threads) != 0 || len(m.freeFrames) != 40 {
		t.Fatalf("after stop: %d threads live, %d frames free; want 0 and 40", len(m.threads), len(m.freeFrames))
	}
	m.StopOnRespond = false
	for run := 1; run <= 2; run++ {
		tids, maxDepth = tids[:0], 0
		got, err := m.RunMethod(deep, heap.IntVal(9))
		if err != nil {
			t.Fatal(err)
		}
		if got.Int() != 9 {
			t.Errorf("run %d: deep(9) = %d, want 9", run, got.Int())
		}
		if entryDepth != 1 || maxDepth != 10 {
			t.Errorf("run %d: entry depth %d, max depth %d; want 1 and 10", run, entryDepth, maxDepth)
		}
		if len(tids) == 0 {
			t.Fatalf("run %d: no CU entries", run)
		}
		for _, tid := range tids {
			if tid != run {
				t.Fatalf("run %d: hook tid %d, want %d", run, tid, run)
			}
		}
	}
}

// TestWarmCallPathAllocationFree runs fib on a warmed machine: the
// allocations of a run must not grow with its number of calls (fib(10)
// makes 177 calls, fib(16) 3193).
func TestWarmCallPathAllocationFree(t *testing.T) {
	p := buildFib(t)
	m := New(p)
	fib := p.Class("F").DeclaredMethod("fib")
	run := func(n int64) func() {
		return func() {
			if _, err := m.RunMethod(fib, heap.IntVal(n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(16)() // grow the frame pool to fib(16)'s depth
	few := testing.AllocsPerRun(20, run(10))
	many := testing.AllocsPerRun(20, run(16))
	if many > few {
		t.Errorf("allocations grow with calls: %v per fib(10), %v per fib(16)", few, many)
	}
}
