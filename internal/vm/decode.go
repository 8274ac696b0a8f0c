package vm

import (
	"math"
	"sort"
	"unsafe"

	"nimage/internal/ir"
)

// op is one decoded instruction or block terminator. It holds no pointers,
// so the garbage collector never scans a method's op stream, and it packs
// into 12 bytes; everything else an op needs lives in its code's side
// tables.
//
// code is what the interpreter's one switch dispatches on: the ir.Op of an
// instruction, a terminator pseudo-op, or the operator-specific code of an
// arith, farith or cmp (see the table below); mixOp maps every code back to
// the ir.Op the opcode mix counts. sub is the IntrinsicID of an intrinsic,
// the operator of a generic arith, farith or cmp, flagWide on a constant
// held in aux, and flagClinit on an op that may trigger class
// initialization. a, b and c are registers (noReg: none); x is an operand
// or an index into a side table:
//
//	const.i, const.f      a, x=value (flagWide: aux offset of the value)
//	const.s               a, x=refs (*string)
//	arith, farith, cmp    a, b, c; sub=operator (an operator with no
//	                      code of its own: it traps, or yields NaN or 0)
//	add … shr             a, b, c: integer arith, one code per ArithOp
//	fadd … frem           a, b, c: float arith, Add through Rem
//	eq … ge               a, b, c: cmp, one code per CmpOp
//	new                   a, x=refs (*ir.Class)
//	newarray              a, b, x=refs (*ir.TypeRef)
//	get/putfield          a, b, x=refs (*ir.Field)
//	get/putstatic         a, x=refs (*ir.Field)
//	call, callvirt        a, x=aux offset of a site (refs: *ir.Method;
//	                      a callvirt dispatches on its Selector)
//	intrinsic             a, x=aux offset of a site (refs: *string, the
//	                      name, or a spawn's target)
//	goto                  x=target block
//	if                    a=cond, x=then block, b|c<<16=else block
//	return                a=value
//
// A site is a refs index, an argument count, and the argument registers.
type op struct {
	code    uint8
	sub     uint8
	a, b, c uint16
	x       int32
}

// Terminator pseudo-ops follow the instruction opcodes, and the
// operator-specific codes follow them, each group in operator order.
const (
	opGoto uint8 = uint8(ir.NumOps) + iota
	opIf
	opReturn
	opBadTerm // an invalid terminator; traps

	opAdd // integer arith: ir.Add through ir.Shr
	opSub
	opMul
	opDiv
	opRem
	opAnd
	opOr
	opXor
	opShl
	opShr

	opFAdd // float arith: ir.Add through ir.Rem
	opFSub
	opFMul
	opFDiv
	opFRem

	opEq // cmp: ir.Eq through ir.Ge
	opNe
	opLt
	opLe
	opGt
	opGe

	numCodes
)

const (
	// noReg is the register field of an absent register, as in ir.Instr.
	noReg = ir.RegNone
	// flagClinit marks new, static accesses, and calls of static methods
	// other than class initializers: the ops that trigger class
	// initialization on an AutoClinit machine.
	flagClinit = 1
	// flagWide marks a constant too wide for x, stored in aux instead.
	flagWide = 1
	// badOperator stands in for an arith or cmp operator too large for
	// sub, which the operator functions reject.
	badOperator = 0xff
)

// mixOp maps every code to the opcode-mix index of its ir.Op. Terminators
// map to ir.NumOps, a slot the mix never publishes.
var mixOp = func() (t [numCodes]uint8) {
	for c := range t {
		switch {
		case c < ir.NumOps:
			t[c] = uint8(c)
		case c >= int(opAdd) && c <= int(opShr):
			t[c] = uint8(ir.OpArith)
		case c >= int(opFAdd) && c <= int(opFRem):
			t[c] = uint8(ir.OpFArith)
		case c >= int(opEq):
			t[c] = uint8(ir.OpCmp)
		default:
			t[c] = uint8(ir.NumOps)
		}
	}
	return t
}()

// code is the decoded body of one method: every block's instructions
// followed by its terminator, in block order, in one exactly sized op
// slice, plus the side tables the ops index. It is immutable once decoded
// and is shared by every machine running the method's program.
type code struct {
	ops []op
	// aux starts with the offset of each block's first op (aux[b] for
	// block b) and goes on with call and intrinsic sites and wide
	// constants (low word first).
	aux []int32
	// refs holds the program entities ops refer to. A string or type is a
	// pointer to the field of the instruction's Operand, shared rather
	// than copied: the body is immutable once decoded.
	refs []any
}

// codeOf returns meth's decoded code, decoding and publishing it on the
// method's first call.
func codeOf(meth *ir.Method) *code {
	if c, ok := meth.Exec().(*code); ok {
		return c
	}
	return meth.PublishExec(decode(meth)).(*code)
}

// decode translates a resolved method body into its op stream.
func decode(meth *ir.Method) *code {
	n := 0
	for _, b := range meth.Blocks {
		n += len(b.Instrs) + 1
	}
	c := &code{ops: make([]op, 0, n), aux: make([]int32, len(meth.Blocks))}
	for bi, b := range meth.Blocks {
		c.aux[bi] = int32(len(c.ops))
		for i := range b.Instrs {
			c.ops = append(c.ops, c.instr(&b.Instrs[i]))
		}
		c.ops = append(c.ops, term(b.Term))
	}
	c.aux = exact(c.aux)
	c.refs = exact(c.refs)
	return c
}

func (c *code) instr(in *ir.Instr) op {
	o := op{code: uint8(in.Op), a: in.A, b: in.B, c: in.C}
	switch in.Op {
	case ir.OpConstInt, ir.OpConstFloat:
		if in.Val >= math.MinInt32 && in.Val <= math.MaxInt32 {
			o.x = int32(in.Val)
		} else {
			o.sub = flagWide
			o.x = int32(len(c.aux))
			c.aux = append(c.aux, int32(in.Val), int32(in.Val>>32))
		}
	case ir.OpConstStr:
		o.x = c.ref(&in.Sym)
	case ir.OpArith:
		o.operator(in.Val, opAdd, int64(ir.Shr))
	case ir.OpFArith:
		o.operator(in.Val, opFAdd, int64(ir.Rem))
	case ir.OpCmp:
		o.operator(in.Val, opEq, int64(ir.Ge))
	case ir.OpNew:
		o.sub = flagClinit
		o.x = c.ref(in.Class)
	case ir.OpNewArray:
		o.x = c.ref(in.Type)
	case ir.OpGetField, ir.OpPutField:
		o.x = c.ref(in.Field)
	case ir.OpGetStatic, ir.OpPutStatic:
		o.sub = flagClinit
		o.x = c.ref(in.Field)
	case ir.OpCall, ir.OpCallVirt:
		if in.Op == ir.OpCall && in.Method.Static && !in.Method.Clinit {
			o.sub = flagClinit
		}
		o.x = c.site(in.Method, in.Args)
	case ir.OpIntrinsic:
		id := ir.LookupIntrinsic(in.Sym)
		o.sub = uint8(id)
		name := &in.Sym
		if id == ir.IntrSpawn {
			name = &in.CName
		}
		o.x = c.site(name, in.Args)
	}
	return o
}

// operator decodes the operator v of an arith, farith or cmp: operators 0
// through last get their own code, first+v; any other stays on the
// generic code with the operator in sub.
func (o *op) operator(v int64, first uint8, last int64) {
	switch {
	case v >= 0 && v <= last:
		o.code = first + uint8(v)
	case v >= 0 && v < badOperator:
		o.sub = uint8(v)
	default:
		o.sub = badOperator
	}
}

func term(t ir.Term) op {
	switch t.Op {
	case ir.TermGoto:
		return op{code: opGoto, x: t.Then}
	case ir.TermIf:
		return op{code: opIf, a: t.Cond, x: t.Then, b: uint16(t.Else), c: uint16(t.Else >> 16)}
	case ir.TermReturn:
		return op{code: opReturn, a: t.Ret}
	default:
		return op{code: opBadTerm, x: int32(t.Op)}
	}
}

// ref appends v to the refs table and returns its index.
func (c *code) ref(v any) int32 {
	c.refs = append(c.refs, v)
	return int32(len(c.refs) - 1)
}

// site appends a call or intrinsic site to aux and returns its offset.
func (c *code) site(target any, args []int32) int32 {
	off := int32(len(c.aux))
	c.aux = append(c.aux, c.ref(target), int32(len(args)))
	c.aux = append(c.aux, args...)
	return off
}

// wide returns the constant stored at aux offset i.
func (c *code) wide(i int32) int64 {
	return int64(uint32(c.aux[i])) | int64(c.aux[i+1])<<32
}

// siteAt returns the refs entry and argument registers of the site at aux
// offset i.
func (c *code) siteAt(i int32) (any, []int32) {
	n := c.aux[i+1]
	return c.refs[c.aux[i]], c.aux[i+2 : i+2+n]
}

// trigger returns the class whose initialization the flagClinit op o
// triggers: the class it allocates, of the static field it accesses, or of
// the static method it calls.
func (c *code) trigger(o *op) *ir.Class {
	switch o.code {
	case uint8(ir.OpNew):
		return c.refs[o.x].(*ir.Class)
	case uint8(ir.OpCall):
		target, _ := c.siteAt(o.x)
		return target.(*ir.Method).Class
	default:
		return c.refs[o.x].(*ir.Field).Class
	}
}

// elseBlock returns the else target of an if.
func (o *op) elseBlock() int32 { return int32(o.b) | int32(o.c)<<16 }

// where locates op offset pc as a block and an instruction index within it.
func (c *code) where(pc, blocks int) (block, ip int) {
	b := sort.Search(blocks, func(i int) bool { return int(c.aux[i]) > pc }) - 1
	return b, pc - int(c.aux[b])
}

// bytes returns the memory the decoded code holds: its header, the op
// stream and the side tables (not the entities refs point to).
func (c *code) bytes() int64 {
	return int64(unsafe.Sizeof(*c)) +
		int64(len(c.ops))*int64(unsafe.Sizeof(op{})) +
		int64(len(c.aux))*4 +
		int64(len(c.refs))*int64(unsafe.Sizeof(any(nil)))
}

// DecodedBytes returns the memory held by the decoded code cached on p's
// methods: those some machine has called.
func DecodedBytes(p *ir.Program) int64 {
	var n int64
	for _, m := range p.Methods() {
		if c, ok := m.Exec().(*code); ok {
			n += c.bytes()
		}
	}
	return n
}

// exact returns s in a slice of exactly its length, or nil when empty.
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}
