package vm

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"nimage/internal/heap"
	"nimage/internal/ir"
)

// binOpProgram builds one static method per (opcode, operator) pair of
// arith, farith and cmp — "arith3" is run(b, c) = b Div c — each with one
// instruction before its return.
func binOpProgram(t *testing.T) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("binops")
	b.Class(ir.StringClass)
	b.Class("Obj")
	c := b.Class("T")
	for op := ir.Add; op <= ir.Shr; op++ {
		for _, kind := range []string{"arith", "farith"} {
			mb := c.StaticMethod(fmt.Sprintf("%s%d", kind, op), 2, ir.Int())
			e := mb.Entry()
			if kind == "arith" {
				e.Ret(e.Arith(op, mb.Param(0), mb.Param(1)))
			} else {
				e.Ret(e.FArith(op, mb.Param(0), mb.Param(1)))
			}
		}
	}
	for op := ir.Eq; op <= ir.Ge; op++ {
		mb := c.StaticMethod(fmt.Sprintf("cmp%d", op), 2, ir.Int())
		e := mb.Entry()
		e.Ret(e.Cmp(op, mb.Param(0), mb.Param(1)))
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSpecializedOpsMatchGeneric runs every arith, farith and cmp operator
// over every pairing of operand kinds through the interpreter's
// operator-specific codes and checks each result, or trap, against the
// generic operator functions.
func TestSpecializedOpsMatchGeneric(t *testing.T) {
	p := binOpProgram(t)
	obj := p.Class("Obj")
	r1, r2 := heap.RefVal(heap.NewObject(obj)), heap.RefVal(heap.NewObject(obj))
	pairs := []struct {
		name string
		x, y heap.Value
	}{
		{"int/int", heap.IntVal(-47), heap.IntVal(5)},
		{"int/int equal", heap.IntVal(9), heap.IntVal(9)},
		{"int/int shift", heap.IntVal(-3), heap.IntVal(67)},
		{"int/float", heap.IntVal(7), heap.FloatVal(2.5)},
		{"float/int", heap.FloatVal(-1.25), heap.IntVal(3)},
		{"float/float", heap.FloatVal(7.5), heap.FloatVal(-2)},
		{"float/float zero", heap.FloatVal(0), heap.FloatVal(0)},
		{"ref/ref", r1, r2},
		{"ref/same ref", r1, r1},
		{"null/null", heap.Null(), heap.Null()},
		{"ref/int", r1, heap.IntVal(4)},
		{"int/null", heap.IntVal(4), heap.Null()},
	}
	run := func(name string, x, y heap.Value) (heap.Value, error) {
		m := New(p)
		return m.RunMethod(p.Class("T").DeclaredMethod(name), x, y)
	}
	for _, pr := range pairs {
		for op := ir.Add; op <= ir.Shr; op++ {
			name := fmt.Sprintf("arith%d", op)
			got, err := run(name, pr.x, pr.y)
			v, e := intArith(op, pr.x.Int(), pr.y.Int())
			if e != "" {
				want := fmt.Sprintf("vm: %s at T.%s(2) block 0 ip 1", e, name)
				if err == nil || err.Error() != want {
					t.Errorf("%s %s: err = %v, want %q", name, pr.name, err, want)
				}
			} else if err != nil || got != heap.IntVal(v) {
				t.Errorf("%s %s: got %v, %v; want %v", name, pr.name, got, err, heap.IntVal(v))
			}

			name = fmt.Sprintf("farith%d", op)
			got, err = run(name, pr.x, pr.y)
			want := heap.FloatVal(floatArith(op, pr.x.Float(), pr.y.Float()))
			if err != nil || got != want {
				t.Errorf("%s %s: got %v, %v; want %v", name, pr.name, got, err, want)
			}
		}
		for op := ir.Eq; op <= ir.Ge; op++ {
			name := fmt.Sprintf("cmp%d", op)
			got, err := run(name, pr.x, pr.y)
			want := heap.IntVal(boolInt(compare(op, pr.x, pr.y)))
			if err != nil || got != want {
				t.Errorf("%s %s: got %v, %v; want %v", name, pr.name, got, err, want)
			}
		}
	}
}

// TestDivRemByZeroTrap: integer division and remainder by zero trap with
// the generic operator's message at the instruction's (block, ip).
func TestDivRemByZeroTrap(t *testing.T) {
	for _, c := range []struct {
		op  ir.ArithOp
		msg string
	}{{ir.Div, "integer division by zero"}, {ir.Rem, "integer remainder by zero"}} {
		p := trapProgram(t)
		run := p.Class("T").DeclaredMethod("run")
		run.Blocks[1].Instrs[2].Val = int64(c.op)
		_, err := New(p).RunMethod(run)
		if want := "vm: " + c.msg + " at T.run(0) block 1 ip 3"; err == nil || err.Error() != want {
			t.Errorf("%v: err = %v, want %q", c.op, err, want)
		}
	}
}

// TestOutOfRangeOperators: an arith operator outside Add..Shr traps, both
// when it fits the op's operator field and when it does not; out-of-range
// farith and cmp operators keep their generic results, NaN and 0.
func TestOutOfRangeOperators(t *testing.T) {
	for _, v := range []int64{int64(ir.Shr) + 1, 200, 1 << 40, -1} {
		p := trapProgram(t)
		run := p.Class("T").DeclaredMethod("run")
		run.Blocks[1].Instrs[2].Val = v
		_, err := New(p).RunMethod(run)
		if want := "vm: invalid arithmetic operator at T.run(0) block 1 ip 3"; err == nil || err.Error() != want {
			t.Errorf("operator %d: err = %v, want %q", v, err, want)
		}
	}
	for _, v := range []int64{int64(ir.Shr) + 1, 1 << 40, -1} {
		p := binOpProgram(t)
		f := p.Class("T").DeclaredMethod("farith0")
		f.Blocks[0].Instrs[0].Val = v
		got, err := New(p).RunMethod(f, heap.FloatVal(1), heap.FloatVal(2))
		if err != nil || !math.IsNaN(got.Float()) || got.Kind != heap.VFloat {
			t.Errorf("farith operator %d: got %v, %v; want NaN", v, got, err)
		}
		c := p.Class("T").DeclaredMethod("cmp0")
		c.Blocks[0].Instrs[0].Val = v
		got, err = New(p).RunMethod(c, heap.IntVal(1), heap.IntVal(1))
		if err != nil || got != heap.IntVal(0) {
			t.Errorf("cmp operator %d: got %v, %v; want 0", v, got, err)
		}
	}
}

// TestCallVirtNoTarget: a virtual call on a receiver whose class has no
// method of the call's name traps.
func TestCallVirtNoTarget(t *testing.T) {
	b := ir.NewBuilder("notarget")
	b.Class(ir.StringClass)
	b.Class("A").Method("foo", 0, ir.Void()).Entry().RetVoid()
	b.Class("B")
	mb := b.Class("M").StaticMethod("run", 0, ir.Void())
	e := mb.Entry()
	e.CallVirtVoid("A", "foo", e.New("B"))
	e.RetVoid()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(p).RunMethod(p.Class("M").DeclaredMethod("run"))
	if err == nil || !strings.Contains(err.Error(), "no target for foo on B") {
		t.Errorf("err = %v, want a no-target trap", err)
	}
}
