package ir

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// buildCodecProgram constructs a program exercising every encodable
// feature: inheritance, statics, resources, floats, arrays, virtual calls,
// intrinsics, all terminators.
func buildCodecProgram(t testing.TB) *Program {
	t.Helper()
	b := NewBuilder("codec")
	b.Class(StringClass)
	b.Resource("data/a.bin", 123)
	b.Resource("data/b.bin", 4567)

	base := b.Class("pkg.Base")
	base.Field("x", Int())
	base.Field("f", Float())
	base.Static("cache", Array(Ref("pkg.Base")))
	bm := base.Method("calc", 1, Int())
	be := bm.Entry()
	v := be.GetField(bm.This(), "pkg.Base", "x")
	s := be.Arith(Add, v, bm.Param(0))
	cond := be.Cmp(Gt, s, v)
	yes := bm.NewBlock()
	no := bm.NewBlock()
	be.If(cond, yes, no)
	yes.Ret(s)
	no.Ret(v)

	sub := b.Class("pkg.Sub").Extends("pkg.Base")
	sm := sub.Method("calc", 1, Int())
	se := sm.Entry()
	two := se.ConstInt(2)
	se.Ret(se.Arith(Mul, sm.Param(0), two))

	main := b.Class("Main")
	cl := main.Clinit()
	ce := cl.Entry()
	one := ce.ConstInt(1)
	arr := ce.NewArray(Ref("pkg.Base"), one)
	ce.PutStatic("pkg.Base", "cache", arr)
	ce.RetVoid()

	mm := main.StaticMethod("main", 0, Void())
	e := mm.Entry()
	o := e.New("pkg.Sub")
	k := e.ConstInt(3)
	e.CallVirt("pkg.Base", "calc", o, k)
	fv := e.ConstFloat(2.75)
	e.FArith(Div, fv, fv)
	str := e.Str("hello codec")
	e.Intrinsic(IntrinsicStrLen, str)
	e.Null()
	e.RetVoid()
	b.SetEntry("Main", "main")

	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProgramCodecRoundTrip(t *testing.T) {
	p := buildCodecProgram(t)
	var buf bytes.Buffer
	if err := EncodeProgram(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := DecodeProgram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != p.Name || q.EntryClass != p.EntryClass || q.EntryMethod != p.EntryMethod {
		t.Errorf("program identity: %s %s.%s", q.Name, q.EntryClass, q.EntryMethod)
	}
	if len(q.Resources) != 2 || q.Resources[1].Size != 4567 {
		t.Errorf("resources: %+v", q.Resources)
	}
	if len(q.Classes) != len(p.Classes) {
		t.Fatalf("classes: %d vs %d", len(q.Classes), len(p.Classes))
	}
	for i := range p.Classes {
		pc, qc := p.Classes[i], q.Classes[i]
		if pc.Name != qc.Name || pc.SuperName != qc.SuperName {
			t.Fatalf("class %d identity", i)
		}
		if len(pc.Methods) != len(qc.Methods) || len(pc.Fields) != len(qc.Fields) || len(pc.Statics) != len(qc.Statics) {
			t.Fatalf("class %s shape", pc.Name)
		}
		for mi := range pc.Methods {
			pm, qm := pc.Methods[mi], qc.Methods[mi]
			if pm.Signature() != qm.Signature() || pm.Static != qm.Static || pm.Clinit != qm.Clinit {
				t.Fatalf("method %s identity", pm.Signature())
			}
			if pm.NumRegs != qm.NumRegs || len(pm.Blocks) != len(qm.Blocks) {
				t.Fatalf("method %s shape", pm.Signature())
			}
			if pm.CodeSize() != qm.CodeSize() {
				t.Errorf("method %s code size %d vs %d", pm.Signature(), pm.CodeSize(), qm.CodeSize())
			}
			for bi := range pm.Blocks {
				pb, qb := pm.Blocks[bi], qm.Blocks[bi]
				if pb.Term != qb.Term {
					t.Fatalf("%s block %d terminator", pm.Signature(), bi)
				}
				if len(pb.Instrs) != len(qb.Instrs) {
					t.Fatalf("%s block %d instr count", pm.Signature(), bi)
				}
				for ii := range pb.Instrs {
					pi, qi := pb.Instrs[ii], qb.Instrs[ii]
					if pi.Op != qi.Op || pi.A != qi.A || pi.B != qi.B || pi.C != qi.C ||
						pi.Val != qi.Val || (pi.Operand == nil) != (qi.Operand == nil) ||
						pi.Operand != nil && (pi.Sym != qi.Sym || pi.CName != qi.CName ||
							(pi.Type == nil) != (qi.Type == nil) || pi.Type != nil && !pi.Type.Equal(*qi.Type) || !slices.Equal(pi.Args, qi.Args)) {
						t.Fatalf("%s block %d instr %d mismatch:\n%+v\n%+v", pm.Signature(), bi, ii, pi, qi)
					}
				}
			}
		}
	}
	// Decoded program must be resolved and re-encodable to identical bytes.
	if !q.Resolved() {
		t.Error("decoded program not resolved")
	}
	var buf2 bytes.Buffer
	if err := EncodeProgram(&buf2, q); err != nil {
		t.Fatal(err)
	}
	var buf1 bytes.Buffer
	if err := EncodeProgram(&buf1, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Error("re-encoding is not canonical")
	}
}

func TestProgramCodecRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     nil,
		"bad magic": []byte("XXXX123456"),
		"truncated": func() []byte {
			p := buildCodecProgram(t)
			var buf bytes.Buffer
			if err := EncodeProgram(&buf, p); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()[:buf.Len()/2]
		}(),
	}
	for name, data := range cases {
		if _, err := DecodeProgram(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

func TestProgramCodecNegativeRegisterFields(t *testing.T) {
	// CallVoid uses A = -1 (NoReg); zigzag must preserve it.
	b := NewBuilder("neg")
	b.Class(StringClass)
	c := b.Class("A")
	g := c.StaticMethod("g", 0, Void())
	g.Entry().RetVoid()
	m := c.StaticMethod("f", 0, Void())
	e := m.Entry()
	e.CallVoid("A", "g")
	e.RetVoid()
	b.SetEntry("A", "f")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeProgram(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := DecodeProgram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	in := q.Class("A").DeclaredMethod("f").Blocks[0].Instrs[0]
	if in.A != RegNone {
		t.Errorf("A = %d, want %d", in.A, NoReg)
	}
}

func TestProgramCodecUnresolvableRejected(t *testing.T) {
	// Corrupt a valid encoding so it decodes structurally but fails to
	// resolve: encode a program whose call target is missing by building
	// the encoding manually is brittle; instead check the error path via a
	// program with an entry class that does not exist.
	p := &Program{Name: "bad", EntryClass: "Nope", EntryMethod: "main"}
	var buf bytes.Buffer
	if err := EncodeProgram(&buf, p); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeProgram(&buf); err == nil || !strings.Contains(err.Error(), "resolve") {
		t.Errorf("err = %v", err)
	}
}

// TestProgramCodecCanonicalOnLargePrograms: every built-in style program
// shape survives the codec; canonical re-encoding is byte-identical.
func TestProgramCodecCanonicalOnLargePrograms(t *testing.T) {
	// Use the codec test program plus a generated many-class program.
	progs := []*Program{buildCodecProgram(t)}
	b := NewBuilder("many")
	b.Class(StringClass)
	for i := 0; i < 40; i++ {
		c := b.Class(fmt.Sprintf("pkg%d.C", i))
		c.Field("x", Int())
		m := c.StaticMethod("f", 1, Int())
		e := m.Entry()
		acc := e.Move(m.Param(0))
		for k := 0; k < 5; k++ {
			kc := e.ConstInt(int64(k * i))
			e.ArithTo(acc, Add, acc, kc)
		}
		e.Ret(acc)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, p)

	for _, p := range progs {
		var b1 bytes.Buffer
		if err := EncodeProgram(&b1, p); err != nil {
			t.Fatal(err)
		}
		q, err := DecodeProgram(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var b2 bytes.Buffer
		if err := EncodeProgram(&b2, q); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Errorf("%s: re-encoding differs (%d vs %d bytes)", p.Name, b1.Len(), b2.Len())
		}
	}
}

// TestProgramCodecKeepsStrayOperands: an instruction whose opcode has no
// operands but which was given some keeps them through the codec, so a
// decoded program re-encodes to its own bytes; one without keeps none.
func TestProgramCodecKeepsStrayOperands(t *testing.T) {
	body := []Instr{
		{Op: OpConstInt, A: 0, Val: 7, Operand: &Operand{Sym: "stray", Args: []int32{0}}},
		{Op: OpConstInt, A: 1, Val: 8},
	}
	m := &Method{Name: "f", Static: true, Returns: Void(), NumRegs: 2,
		Blocks: []*Block{{Instrs: body, Term: Term{Op: TermReturn, Ret: RegNone}}}}
	p := &Program{Name: "stray", EntryClass: "A", EntryMethod: "f",
		Classes: []*Class{{Name: "A", Methods: []*Method{m}}}}
	var b1 bytes.Buffer
	if err := EncodeProgram(&b1, p); err != nil {
		t.Fatal(err)
	}
	q, err := DecodeProgram(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := q.Class("A").DeclaredMethod("f").Blocks[0].Instrs
	if got[0].Operand == nil || got[0].Sym != "stray" || !slices.Equal(got[0].Args, []int32{0}) {
		t.Errorf("stray operand lost: %+v", got[0].Operand)
	}
	if got[1].Operand != nil {
		t.Errorf("operand-free instruction decoded with %+v", *got[1].Operand)
	}
	var b2 bytes.Buffer
	if err := EncodeProgram(&b2, q); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("re-encoding is not canonical")
	}
}

// TestResolveRejectsMissingOperand: an opcode that needs an Operand and
// has none, or an allocation whose Operand has no Type, fails Resolve with
// a defined error.
func TestResolveRejectsMissingOperand(t *testing.T) {
	resolve := func(in Instr) error {
		m := &Method{Name: "f", Static: true, Returns: Void(), NumRegs: 1,
			Blocks: []*Block{{Instrs: []Instr{in}, Term: Term{Op: TermReturn, Ret: RegNone}}}}
		p := &Program{Name: "bare", Classes: []*Class{{Name: "A", Methods: []*Method{m}}}}
		return p.Resolve()
	}
	for op := Op(0); int(op) < NumOps; op++ {
		if !op.HasOperand() {
			continue
		}
		if err := resolve(Instr{Op: op}); err == nil || !strings.Contains(err.Error(), "no operand") {
			t.Errorf("%s without an Operand: err = %v", op, err)
		}
		if !op.HasType() {
			continue
		}
		if err := resolve(Instr{Op: op, Operand: &Operand{}}); err == nil || !strings.Contains(err.Error(), "no type") {
			t.Errorf("%s without a Type: err = %v", op, err)
		}
	}
}
