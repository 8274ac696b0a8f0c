package ir

import (
	"strings"
	"testing"
)

// buildArith constructs a small valid program:
//
//	class Math { static add(a,b) { return a+b } }
//	class Main { static main() { Math.add(1,2) } }
func buildArith(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("arith")
	math := b.Class("Math")
	add := math.StaticMethod("add", 2, Int())
	e := add.Entry()
	s := e.Arith(Add, add.Param(0), add.Param(1))
	e.Ret(s)

	main := b.Class("Main")
	mm := main.StaticMethod("main", 0, Void())
	me := mm.Entry()
	a := me.ConstInt(1)
	c := me.ConstInt(2)
	me.Call("Math", "add", a, c)
	me.RetVoid()
	b.SetEntry("Main", "main")

	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestBuildAndResolve(t *testing.T) {
	p := buildArith(t)
	if p.Entry() == nil || p.Entry().Signature() != "Main.main(0)" {
		t.Fatalf("entry = %v", p.Entry())
	}
	add := p.Class("Math").DeclaredMethod("add")
	if add == nil || add.NParams != 2 {
		t.Fatalf("add = %+v", add)
	}
	// The call in main must be resolved to add.
	mainM := p.Entry()
	var call *Instr
	for i := range mainM.Blocks[0].Instrs {
		if mainM.Blocks[0].Instrs[i].Op == OpCall {
			call = &mainM.Blocks[0].Instrs[i]
		}
	}
	if call == nil || call.Method != add {
		t.Fatalf("call not resolved: %+v", call)
	}
}

func TestStableTypeIDs(t *testing.T) {
	// Type IDs must depend only on the set of class names (sorted), not on
	// declaration order — Sec. 5.1 requires IDs stable across builds.
	mk := func(order []string) map[string]int {
		b := NewBuilder("ids")
		for _, n := range order {
			cb := b.Class(n)
			m := cb.StaticMethod("noop", 0, Void())
			m.Entry().RetVoid()
		}
		p, err := b.Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		ids := make(map[string]int)
		for _, c := range p.Classes {
			ids[c.Name] = c.ID
		}
		return ids
	}
	a := mk([]string{"B", "A", "C"})
	bm := mk([]string{"C", "B", "A"})
	for n, id := range a {
		if bm[n] != id {
			t.Errorf("class %s: id %d vs %d across declaration orders", n, id, bm[n])
		}
	}
	if a["A"] != 1 || a["B"] != 2 || a["C"] != 3 {
		t.Errorf("ids not sorted-name order: %v", a)
	}
}

func TestInheritanceLayoutAndDispatch(t *testing.T) {
	b := NewBuilder("inherit")
	base := b.Class("Base")
	base.Field("x", Int())
	bm := base.Method("get", 0, Int())
	e := bm.Entry()
	e.Ret(e.GetField(bm.This(), "Base", "x"))

	sub := b.Class("Sub").Extends("Base")
	sub.Field("y", Int())
	sm := sub.Method("get", 0, Int())
	se := sm.Entry()
	v := se.GetField(sm.This(), "Sub", "y")
	two := se.ConstInt(2)
	se.Ret(se.Arith(Mul, v, two))

	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sc := p.Class("Sub")
	if len(sc.AllFields) != 2 {
		t.Fatalf("Sub.AllFields = %v", sc.AllFields)
	}
	if sc.AllFields[0].Name != "x" || sc.AllFields[0].Slot != 0 {
		t.Errorf("inherited field first: %+v", sc.AllFields[0])
	}
	if sc.AllFields[1].Name != "y" || sc.AllFields[1].Slot != 1 {
		t.Errorf("own field second: %+v", sc.AllFields[1])
	}
	if got := sc.LookupMethod("get"); got == nil || got.Class != sc {
		t.Errorf("Sub.get dispatches to %v", got)
	}
	if got := p.Class("Base").LookupMethod("get"); got == nil || got.Class.Name != "Base" {
		t.Errorf("Base.get dispatches to %v", got)
	}
	ov := Overriders(p.Class("Base").DeclaredMethod("get"))
	if len(ov) != 2 {
		t.Errorf("Overriders = %v", ov)
	}
}

func TestResolveErrors(t *testing.T) {
	cases := []struct {
		name string
		make func(b *Builder)
		want string
	}{
		{
			name: "unknown superclass",
			make: func(b *Builder) {
				c := b.Class("A").Extends("Nope")
				m := c.StaticMethod("f", 0, Void())
				m.Entry().RetVoid()
			},
			want: "unknown superclass",
		},
		{
			name: "unknown call target",
			make: func(b *Builder) {
				c := b.Class("A")
				m := c.StaticMethod("f", 0, Void())
				e := m.Entry()
				e.CallVoid("A", "missing")
				e.RetVoid()
			},
			want: "unknown method",
		},
		{
			name: "unknown field",
			make: func(b *Builder) {
				c := b.Class("A")
				m := c.StaticMethod("f", 0, Void())
				e := m.Entry()
				o := e.New("A")
				e.GetField(o, "A", "missing")
				e.RetVoid()
			},
			want: "unknown field",
		},
		{
			name: "arg count mismatch",
			make: func(b *Builder) {
				c := b.Class("A")
				g := c.StaticMethod("g", 1, Void())
				g.Entry().RetVoid()
				m := c.StaticMethod("f", 0, Void())
				e := m.Entry()
				e.CallVoid("A", "g")
				e.RetVoid()
			},
			want: "want 1",
		},
		{
			name: "inheritance cycle",
			make: func(b *Builder) {
				b.Class("A").Extends("B")
				b.Class("B").Extends("A")
			},
			want: "cycle",
		},
		{
			name: "duplicate class",
			make: func(b *Builder) {
				b.Class("A")
				b.Class("A")
			},
			want: "duplicate class",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder("bad")
			tc.make(b)
			_, err := b.Build()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Build err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestUnterminatedBlockRejected(t *testing.T) {
	b := NewBuilder("unterm")
	c := b.Class("A")
	m := c.StaticMethod("f", 0, Void())
	m.Entry().ConstInt(1) // never terminated
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "not terminated") {
		t.Fatalf("Build err = %v", err)
	}
}

func TestDoubleTerminationRejected(t *testing.T) {
	b := NewBuilder("dterm")
	c := b.Class("A")
	m := c.StaticMethod("f", 0, Void())
	e := m.Entry()
	e.RetVoid()
	e.RetVoid()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "terminated twice") {
		t.Fatalf("Build err = %v", err)
	}
}

// TestRegisterOverflowRejected: a register outside [NoReg, MaxRegs) fails
// Build with a defined error instead of wrapping into a 16-bit register
// field, whether a method allocates more than MaxRegs registers or a
// caller names one it never allocated.
func TestRegisterOverflowRejected(t *testing.T) {
	cases := map[string]func(e *BlockBuilder){
		"allocates beyond MaxRegs": func(e *BlockBuilder) {
			for i := 0; i <= MaxRegs; i++ {
				e.ConstInt(int64(i))
			}
		},
		"source 65536":     func(e *BlockBuilder) { e.Move(Reg(1 << 16)) },
		"destination -2":   func(e *BlockBuilder) { e.MoveTo(-2, e.ConstInt(0)) },
		"branch on 65535":  func(e *BlockBuilder) { e.IfThen(Reg(MaxRegs), func(t *BlockBuilder) *BlockBuilder { return t }) },
		"argument 2^32+3":  func(e *BlockBuilder) { e.IntrinsicVoid(IntrinsicPrint, Reg(1<<32+3)) },
		"condition 2^32+3": func(e *BlockBuilder) { e.IfThen(Reg(1<<32+3), func(t *BlockBuilder) *BlockBuilder { return t }) },
	}
	for name, fill := range cases {
		t.Run(name, func(t *testing.T) {
			b := NewBuilder("regs")
			e := b.Class("A").StaticMethod("f", 0, Void()).Entry()
			fill(e)
			e.RetVoid()
			_, err := b.Build()
			if err == nil || !strings.Contains(err.Error(), "outside [-1, 65535)") {
				t.Fatalf("Build err = %v, want a register outside [-1, 65535)", err)
			}
		})
	}
}

func TestForLoopShape(t *testing.T) {
	b := NewBuilder("loop")
	c := b.Class("A")
	m := c.StaticMethod("sum", 1, Int())
	e := m.Entry()
	acc := e.ConstInt(0)
	zero := e.ConstInt(0)
	exit := e.For(zero, m.Param(0), 1, func(body *BlockBuilder, i Reg) *BlockBuilder {
		body.ArithTo(acc, Add, acc, i)
		return body
	})
	exit.Ret(acc)
	b.SetEntry("A", "sum")

	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sum := p.Class("A").DeclaredMethod("sum")
	// entry + head + body + exit
	if len(sum.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(sum.Blocks))
	}
	head := sum.Blocks[1]
	if head.Term.Op != TermIf {
		t.Fatalf("head terminator = %v", head.Term.Op)
	}
	body := sum.Blocks[head.Term.Then]
	if body.Term.Op != TermGoto || body.Term.Then != head.Index {
		t.Fatalf("body does not loop back: %+v", body.Term)
	}
}

func TestCodeSizePositiveAndCached(t *testing.T) {
	p := buildArith(t)
	m := p.Class("Math").DeclaredMethod("add")
	s1 := m.CodeSize()
	if s1 <= 0 {
		t.Fatalf("CodeSize = %d", s1)
	}
	if s2 := m.CodeSize(); s2 != s1 {
		t.Fatalf("CodeSize not stable: %d vs %d", s1, s2)
	}
	m.Blocks[0].Instrs = append(m.Blocks[0].Instrs, Instr{Op: OpConstInt, A: 0})
	m.InvalidateSizeCache()
	if s3 := m.CodeSize(); s3 <= s1 {
		t.Fatalf("CodeSize after growth = %d, want > %d", s3, s1)
	}
}

func TestTypeRefNames(t *testing.T) {
	cases := []struct {
		t    TypeRef
		want string
	}{
		{Int(), "long"},
		{Float(), "double"},
		{Void(), "void"},
		{Ref("a.B"), "a.B"},
		{Array(Int()), "long[]"},
		{Array(Array(Ref("X"))), "X[][]"},
		{String(), "java.lang.String"},
	}
	for _, c := range cases {
		if got := c.t.FullyQualifiedName(); got != c.want {
			t.Errorf("FullyQualifiedName(%v) = %q, want %q", c.t, got, c.want)
		}
	}
	if !String().IsString() || Ref("X").IsString() {
		t.Error("IsString misclassifies")
	}
	if !Int().IsPrimitive() || Ref("X").IsPrimitive() {
		t.Error("IsPrimitive misclassifies")
	}
}

func TestFieldDescriptorAndSignature(t *testing.T) {
	b := NewBuilder("fd")
	c := b.Class("pkg.C")
	c.Field("f", Array(Int()))
	c.Static("s", String())
	m := c.StaticMethod("noop", 0, Void())
	m.Entry().RetVoid()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f := p.Class("pkg.C").LookupField("f")
	if got := f.Descriptor(); got != "pkg.C.f:long[]" {
		t.Errorf("Descriptor = %q", got)
	}
	s := p.Class("pkg.C").LookupStatic("s")
	if got := s.Signature(); got != "pkg.C.s" {
		t.Errorf("Signature = %q", got)
	}
	if !s.Static {
		t.Error("static flag not set")
	}
}

// TestInterleavedEmissionKeepsBlockOrder builds blocks whose instructions
// are emitted interleaved, and one longer than an arena chunk, and checks
// that every block holds exactly its own instructions, in emission order.
func TestInterleavedEmissionKeepsBlockOrder(t *testing.T) {
	b := NewBuilder("interleave")
	mb := b.Class("Main").StaticMethod("main", 0, Void())
	a, c, long := mb.Entry(), mb.NewBlock(), mb.NewBlock()
	want := map[*BlockBuilder][]int64{}
	emit := func(bb *BlockBuilder, v int64) {
		bb.ConstInt(v)
		want[bb] = append(want[bb], v)
	}
	emit(a, 1)
	emit(c, 2)
	emit(a, 3) // a again after c opened
	emit(c, 4)
	for v := int64(0); v < arenaChunk+3; v++ {
		emit(long, 100+v) // fills a chunk and grows past it
	}
	emit(a, 5)
	a.Goto(c)
	c.Goto(long)
	long.RetVoid()
	b.SetEntry("Main", "main")
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	for bb, vals := range want {
		ins := bb.blk.Instrs
		if len(ins) != len(vals) || cap(ins) != len(ins) {
			t.Fatalf("block %d: len %d cap %d, want %d", bb.Index(), len(ins), cap(ins), len(vals))
		}
		for i, v := range vals {
			if ins[i].Op != OpConstInt || ins[i].Val != v {
				t.Fatalf("block %d instr %d = %v %d, want const %d", bb.Index(), i, ins[i].Op, ins[i].Val, v)
			}
		}
	}
}
