package vm

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"nimage/internal/heap"
	"nimage/internal/ir"
	"nimage/internal/obs"
	"nimage/internal/workloads"
)

// TestOpIsCompactAndPointerFree: a decoded op fits in 16 bytes and holds
// no pointers, so op streams stay small and the garbage collector never
// scans them.
func TestOpIsCompactAndPointerFree(t *testing.T) {
	if s := unsafe.Sizeof(op{}); s > 16 {
		t.Errorf("op is %d bytes, want at most 16", s)
	}
	typ := reflect.TypeOf(op{})
	for i := 0; i < typ.NumField(); i++ {
		switch k := typ.Field(i).Type.Kind(); k {
		case reflect.Uint8, reflect.Uint16, reflect.Int32:
		default:
			t.Errorf("op field %s has kind %s, want a fixed-size integer", typ.Field(i).Name, k)
		}
	}
}

// trapProgram builds T.run with an entry block that jumps to block 1:
// two constants, a division by zero, then a move, then a return.
func trapProgram(t *testing.T) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("traps")
	b.Class(ir.StringClass)
	mb := b.Class("T").StaticMethod("run", 0, ir.Int())
	body := mb.NewBlock()
	mb.Entry().Goto(body)
	one := body.ConstInt(1)
	zero := body.ConstInt(0)
	q := body.Arith(ir.Div, one, zero)
	body.Ret(body.Move(q))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTrapLocations pins the trap text: a trapping instruction reports the
// number of instructions of its block executed so far, itself included; a
// trapping terminator reports the block's instruction count.
func TestTrapLocations(t *testing.T) {
	p := trapProgram(t)
	run := p.Class("T").DeclaredMethod("run")
	_, err := New(p).RunMethod(run)
	if want := "vm: integer division by zero at T.run(0) block 1 ip 3"; err == nil || err.Error() != want {
		t.Errorf("mid-block trap: err = %v, want %q", err, want)
	}

	// A terminator the decoder does not know traps where it stands. The
	// body is changed before its first call, so before it is decoded.
	p = trapProgram(t)
	run = p.Class("T").DeclaredMethod("run")
	run.Blocks[1].Instrs[1].Val = 7 // divide by seven instead
	run.Blocks[1].Term.Op = 9
	_, err = New(p).RunMethod(run)
	if want := "vm: invalid terminator 9 at T.run(0) block 1 ip 4"; err == nil || err.Error() != want {
		t.Errorf("terminator trap: err = %v, want %q", err, want)
	}
}

// TestStepBudgetError: the step that takes Steps past MaxSteps ends the
// run with the budget error, whether the budget ends inside a quantum, at
// its boundary, or before the first step.
func TestStepBudgetError(t *testing.T) {
	b := ir.NewBuilder("inf")
	b.Class(ir.StringClass)
	mb := b.Class("I").StaticMethod("spin", 0, ir.Void())
	e := mb.Entry()
	e.ConstInt(1)
	e.Goto(e)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{1001, 399, 400, 401, 0, -5} {
		m := New(p)
		m.MaxSteps = budget
		_, err = m.RunMethod(p.Class("I").DeclaredMethod("spin"))
		if want := fmt.Sprintf("vm: step budget %d exhausted in inf", budget); err == nil || err.Error() != want {
			t.Errorf("budget %d: err = %v, want %q", budget, err, want)
		}
		if want := max(budget, 0) + 1; m.Steps != want || m.Cycles != m.Steps {
			t.Errorf("budget %d: stopped at %d steps, %d cycles; want %d of each", budget, m.Steps, m.Cycles, want)
		}
	}
}

// TestClinitTriggerReexecutes: on an AutoClinit machine, a new, a static
// call and a getstatic of an uninitialized class each execute twice: once
// to push the initializer, charged as one step and one instruction, and
// again after it returns.
func TestClinitTriggerReexecutes(t *testing.T) {
	b := ir.NewBuilder("triggers")
	b.Class(ir.StringClass)
	classes := map[string]*ir.ClassBuilder{}
	for i, name := range []string{"A", "B", "C"} {
		classes[name] = b.Class(name).Static("v", ir.Int())
		e := classes[name].Clinit().Entry()
		e.PutStatic(name, "v", e.ConstInt(int64(i+1)))
		e.RetVoid()
	}
	f := classes["B"].StaticMethod("f", 0, ir.Int())
	f.Entry().Ret(f.Entry().GetStatic("B", "v"))
	main := b.Class("Main").StaticMethod("main", 0, ir.Int())
	e := main.Entry()
	e.New("A")
	e.Call("B", "f")
	e.Ret(e.GetStatic("C", "v"))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	m.AutoClinit = true
	reg := obs.NewRegistry()
	m.Obs = reg
	got, err := m.RunMethod(p.Class("Main").DeclaredMethod("main"))
	if err != nil || got.Int() != 3 {
		t.Fatalf("main = %v, %v; want 3", got, err)
	}
	// main: new(trigger) new call(trigger) call getstatic(trigger)
	// getstatic ret = 7 steps; three initializers of 3 steps; f: 2 steps.
	// Cycles: one per step, plus one allocation, one call and five
	// static accesses.
	if want := int64(18 + costAlloc + costCall + 5*costAccess); m.Steps != 18 || m.Cycles != want {
		t.Errorf("steps %d, cycles %d; want 18, %d", m.Steps, m.Cycles, want)
	}
	want := map[string]int64{"new": 2, "call": 2, "getstatic": 3, "putstatic": 3, "const.i": 3}
	for op, n := range want {
		if c := reg.Counter("vm.instr." + op).Value(); c != n {
			t.Errorf("%s executed %d times, want %d", op, c, n)
		}
	}
}

// TestConcurrentFirstDecode: machines on eight goroutines run one shared
// program from cold, racing to decode and publish every method they call.
// Every machine computes the same run, and each method ends up with one
// published decoding. Run it under -race.
func TestConcurrentFirstDecode(t *testing.T) {
	w, err := workloads.ByName("Richards")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	const n = 8
	type outcome struct {
		steps, cycles int64
		printed       []int64
	}
	outs := make([]outcome, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			m := New(p)
			m.AutoClinit = true
			m.Hooks.OnPrint = func(_ int, v heap.Value) { outs[g].printed = append(outs[g].printed, v.Bits) }
			if err := m.RunProgram(w.Args...); err != nil {
				t.Error(err)
				return
			}
			outs[g].steps, outs[g].cycles = m.Steps, m.Cycles
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 1; g < n; g++ {
		if !reflect.DeepEqual(outs[g], outs[0]) {
			t.Errorf("machine %d: %+v, machine 0: %+v", g, outs[g], outs[0])
		}
	}
	decoded := 0
	for _, meth := range p.Methods() {
		if c := meth.Exec(); c != nil {
			decoded++
			if codeOf(meth) != c {
				t.Errorf("%s: a second decoding replaced the published one", meth.Signature())
			}
		}
	}
	if decoded == 0 {
		t.Error("no method was decoded")
	}
}
