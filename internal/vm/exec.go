package vm

import (
	"encoding/binary"
	"math"
	"strconv"

	"nimage/internal/heap"
	"nimage/internal/ir"
	"nimage/internal/murmur"
)

// step executes one instruction (or terminator) of the top frame of t.
// It reports whether the thread voluntarily yielded its time slice.
func (m *Machine) step(t *thread) (yielded bool, err error) {
	f := t.frames[len(t.frames)-1]
	blk := f.m.Blocks[f.block]
	if f.ip >= len(blk.Instrs) {
		return false, m.terminate(t, f, blk)
	}
	in := &blk.Instrs[f.ip]
	f.ip++
	m.Cycles += costInstr
	if m.mixOn {
		m.mix[in.Op]++
	}

	if m.AutoClinit {
		var trigger *ir.Class
		switch in.Op {
		case ir.OpNew:
			trigger = in.Class
		case ir.OpGetStatic, ir.OpPutStatic:
			trigger = in.Field.Class
		case ir.OpCall:
			if in.Method.Static && !in.Method.Clinit {
				trigger = in.Method.Class
			}
		}
		if trigger != nil && !m.clinitDone[trigger] && m.ensureInit(t, trigger) {
			f.ip-- // re-execute after the initializers return
			return false, nil
		}
	}

	switch in.Op {
	case ir.OpConstInt:
		f.regs[in.A] = heap.IntVal(in.Val)
	case ir.OpConstFloat:
		f.regs[in.A] = heap.Value{Kind: heap.VFloat, Bits: in.Val}
	case ir.OpConstStr:
		if m.Interns == nil {
			return false, m.trapf(f, "string literal without %s on classpath", ir.StringClass)
		}
		f.regs[in.A] = heap.RefVal(m.internString(in.Sym))
	case ir.OpConstNull:
		f.regs[in.A] = heap.Null()
	case ir.OpMove:
		f.regs[in.A] = f.regs[in.B]
	case ir.OpArith:
		v, e := intArith(ir.ArithOp(in.Val), f.regs[in.B].Int(), f.regs[in.C].Int())
		if e != "" {
			return false, m.trapf(f, "%s", e)
		}
		f.regs[in.A] = heap.IntVal(v)
	case ir.OpFArith:
		f.regs[in.A] = heap.FloatVal(floatArith(ir.ArithOp(in.Val), f.regs[in.B].Float(), f.regs[in.C].Float()))
	case ir.OpCmp:
		f.regs[in.A] = heap.IntVal(boolInt(compare(ir.CmpOp(in.Val), f.regs[in.B], f.regs[in.C])))
	case ir.OpConvIF:
		f.regs[in.A] = heap.FloatVal(float64(f.regs[in.B].Int()))
	case ir.OpConvFI:
		f.regs[in.A] = heap.IntVal(int64(f.regs[in.B].Float()))
	case ir.OpNew:
		m.Cycles += costAlloc
		if m.Hooks.OnNew != nil {
			m.Hooks.OnNew(t.id, in.Class)
		}
		f.regs[in.A] = heap.RefVal(heap.NewObject(in.Class))
	case ir.OpNewArray:
		n := f.regs[in.B].Int()
		if n < 0 || n > 1<<26 {
			return false, m.trapf(f, "array length %d out of range", n)
		}
		m.Cycles += costAlloc + n/8
		f.regs[in.A] = heap.RefVal(heap.NewArray(in.Type, int(n)))
	case ir.OpArrayGet:
		o := f.regs[in.B].Ref
		if o == nil {
			return false, m.trapf(f, "null array load")
		}
		i := f.regs[in.C].Int()
		if i < 0 || i >= int64(o.Len()) {
			return false, m.trapf(f, "index %d out of bounds [0,%d)", i, o.Len())
		}
		m.access(t, o)
		f.regs[in.A] = o.GetElem(int(i))
	case ir.OpArraySet:
		o := f.regs[in.A].Ref
		if o == nil {
			return false, m.trapf(f, "null array store")
		}
		i := f.regs[in.B].Int()
		if i < 0 || i >= int64(o.Len()) {
			return false, m.trapf(f, "index %d out of bounds [0,%d)", i, o.Len())
		}
		m.access(t, o)
		m.recordElemWrite(o, int(i))
		o.SetElem(int(i), f.regs[in.C])
	case ir.OpArrayLen:
		o := f.regs[in.B].Ref
		if o == nil {
			return false, m.trapf(f, "null array length")
		}
		m.access(t, o)
		f.regs[in.A] = heap.IntVal(int64(o.Len()))
	case ir.OpGetField:
		o := f.regs[in.B].Ref
		if o == nil {
			return false, m.trapf(f, "null field load of %s", in.Field.Descriptor())
		}
		m.access(t, o)
		f.regs[in.A] = o.GetField(in.Field)
	case ir.OpPutField:
		o := f.regs[in.A].Ref
		if o == nil {
			return false, m.trapf(f, "null field store of %s", in.Field.Descriptor())
		}
		m.access(t, o)
		m.recordFieldWrite(o, in.Field)
		o.SetField(in.Field, f.regs[in.B])
	case ir.OpGetStatic:
		m.Cycles += costAccess
		f.regs[in.A] = m.Statics.Get(in.Field)
	case ir.OpPutStatic:
		m.Cycles += costAccess
		m.recordStaticWrite(in.Field)
		m.Statics.Set(in.Field, f.regs[in.A])
	case ir.OpCall, ir.OpCallVirt:
		return false, m.call(t, f, in)
	case ir.OpIntrinsic:
		return m.intrinsic(t, f, in)
	default:
		return false, m.trapf(f, "invalid opcode %d", in.Op)
	}
	return false, nil
}

// terminate executes the terminator of the current block.
func (m *Machine) terminate(t *thread, f *frame, blk *ir.Block) error {
	m.Cycles += costInstr
	switch blk.Term.Op {
	case ir.TermGoto:
		m.enterBlock(t, f, blk.Term.Then)
	case ir.TermIf:
		if f.regs[blk.Term.Cond].Truthy() {
			m.enterBlock(t, f, blk.Term.Then)
		} else {
			m.enterBlock(t, f, blk.Term.Else)
		}
	case ir.TermReturn:
		ret := heap.Null()
		if blk.Term.Ret >= 0 {
			ret = f.regs[blk.Term.Ret]
		}
		if m.Hooks.OnMethodExit != nil {
			m.Hooks.OnMethodExit(t.id, f.m)
		}
		t.frames = t.frames[:len(t.frames)-1]
		m.freeFrames = append(m.freeFrames, f)
		if len(t.frames) == 0 {
			m.lastResult = ret
			t.done = true
			return nil
		}
		if f.retReg >= 0 {
			t.frames[len(t.frames)-1].regs[f.retReg] = ret
		}
	default:
		return m.trapf(f, "invalid terminator %d", blk.Term.Op)
	}
	return nil
}

func (m *Machine) enterBlock(t *thread, f *frame, b int) {
	f.block = b
	f.ip = 0
	if m.Hooks.OnBlock != nil {
		m.Hooks.OnBlock(t.id, f.m, b)
	}
}

// call pushes a new frame for a (possibly virtual) invocation.
func (m *Machine) call(t *thread, f *frame, in *ir.Instr) error {
	m.Cycles += costCall
	callee := in.Method
	if in.Op == ir.OpCallVirt {
		recv := f.regs[in.Args[0]].Ref
		if recv == nil {
			return m.trapf(f, "virtual call %s on null receiver", in.Method.Signature())
		}
		if recv.Class == nil {
			return m.trapf(f, "virtual call %s on array", in.Method.Signature())
		}
		callee = recv.Class.LookupMethod(in.Sym)
		if callee == nil {
			return m.trapf(f, "no target for %s on %s", in.Sym, recv.Class.Name)
		}
	}
	if len(t.frames) >= 512 {
		return m.trapf(f, "stack overflow calling %s", callee.Signature())
	}
	inlined := m.Hooks.InlineOf != nil && m.Hooks.InlineOf(f.ctx, callee)
	ctx := callee
	if inlined {
		ctx = f.ctx
	}
	nf := m.newFrame(callee, ctx, in.A)
	for i, a := range in.Args {
		nf.regs[i] = f.regs[a]
	}
	t.frames = append(t.frames, nf)
	if !inlined && m.Hooks.OnEnterCU != nil {
		m.Hooks.OnEnterCU(t.id, callee)
	}
	if m.Hooks.OnMethodEnter != nil {
		m.Hooks.OnMethodEnter(t.id, callee)
	}
	if m.Hooks.OnBlock != nil {
		m.Hooks.OnBlock(t.id, callee, 0)
	}
	return nil
}

// intrinsic executes a built-in operation.
func (m *Machine) intrinsic(t *thread, f *frame, in *ir.Instr) (yielded bool, err error) {
	m.Cycles += costIntrinsic
	argS := func(k int) (*heap.Object, error) {
		o := f.regs[in.Args[k]].Ref
		if o == nil || !o.IsString() {
			return nil, m.trapf(f, "intrinsic %s: argument %d is not a string", in.Sym, k)
		}
		return o, nil
	}
	switch in.Sym {
	case ir.IntrinsicPrint:
		if len(in.Args) == 1 {
			if o := f.regs[in.Args[0]].Ref; o != nil {
				m.touch(t, o)
			}
			if m.Hooks.OnPrint != nil {
				m.Hooks.OnPrint(t.id, f.regs[in.Args[0]])
			}
		}
		m.Cycles += 20
	case ir.IntrinsicArg:
		idx := f.regs[in.Args[0]].Int()
		if idx < 0 || idx >= int64(len(m.IntArgs)) {
			return false, m.trapf(f, "arg index %d out of range [0,%d)", idx, len(m.IntArgs))
		}
		f.regs[in.A] = heap.IntVal(m.IntArgs[idx])
	case ir.IntrinsicRespond:
		if !m.Responded {
			m.Responded = true
			m.CyclesAtRespond = m.Cycles
			if m.Hooks.OnRespond != nil {
				m.Hooks.OnRespond()
			}
		}
		if m.StopOnRespond {
			m.stop = true
			return true, nil
		}
	case ir.IntrinsicSpawn:
		target := spawnTarget(m.Prog, in.CName)
		if target == nil || !target.Static {
			return false, m.trapf(f, "spawn target %q not found or not static", in.CName)
		}
		args := make([]heap.Value, len(in.Args))
		for i, a := range in.Args {
			args[i] = f.regs[a]
		}
		m.Cycles += 200 // thread creation cost
		m.spawnThread(target, args)
	case ir.IntrinsicYield:
		return true, nil
	case ir.IntrinsicBuildSalt:
		m.saltCtr++
		var buf [16]byte
		binary.LittleEndian.PutUint64(buf[:8], m.BuildSalt)
		binary.LittleEndian.PutUint64(buf[8:], m.saltCtr)
		f.regs[in.A] = heap.IntVal(int64(murmur.Sum64(buf[:])))
	case ir.IntrinsicIntern:
		s, e := argS(0)
		if e != nil {
			return false, e
		}
		m.access(t, s)
		f.regs[in.A] = heap.RefVal(m.internString(s.Str))
	case ir.IntrinsicConcat:
		a, e := argS(0)
		if e != nil {
			return false, e
		}
		b, e := argS(1)
		if e != nil {
			return false, e
		}
		m.access(t, a)
		m.access(t, b)
		m.Cycles += int64(len(a.Str)+len(b.Str)) / 4
		f.regs[in.A] = heap.RefVal(heap.NewString(m.stringClass, a.Str+b.Str))
	case ir.IntrinsicStrLen:
		s, e := argS(0)
		if e != nil {
			return false, e
		}
		m.access(t, s)
		f.regs[in.A] = heap.IntVal(int64(len(s.Str)))
	case ir.IntrinsicStrHash:
		s, e := argS(0)
		if e != nil {
			return false, e
		}
		m.access(t, s)
		m.Cycles += int64(len(s.Str)) / 4
		f.regs[in.A] = heap.IntVal(int64(murmur.Sum64([]byte(s.Str))))
	case ir.IntrinsicStrChar:
		str, e := argS(0)
		if e != nil {
			return false, e
		}
		m.access(t, str)
		idx := f.regs[in.Args[1]].Int()
		if idx < 0 || idx >= int64(len(str.Str)) {
			return false, m.trapf(f, "strchar index %d out of range [0,%d)", idx, len(str.Str))
		}
		f.regs[in.A] = heap.IntVal(int64(str.Str[idx]))
	case ir.IntrinsicStrEq:
		sa, e := argS(0)
		if e != nil {
			return false, e
		}
		sb, e := argS(1)
		if e != nil {
			return false, e
		}
		m.access(t, sa)
		m.access(t, sb)
		f.regs[in.A] = heap.IntVal(boolInt(sa.Str == sb.Str))
	case ir.IntrinsicItoa:
		f.regs[in.A] = heap.RefVal(heap.NewString(m.stringClass, strconv.FormatInt(f.regs[in.Args[0]].Int(), 10)))
	case ir.IntrinsicAbsF:
		f.regs[in.A] = heap.FloatVal(math.Abs(f.regs[in.Args[0]].Float()))
	case ir.IntrinsicSqrt:
		f.regs[in.A] = heap.FloatVal(math.Sqrt(f.regs[in.Args[0]].Float()))
	case ir.IntrinsicCos:
		f.regs[in.A] = heap.FloatVal(math.Cos(f.regs[in.Args[0]].Float()))
	case ir.IntrinsicSin:
		f.regs[in.A] = heap.FloatVal(math.Sin(f.regs[in.Args[0]].Float()))
	default:
		return false, m.trapf(f, "unknown intrinsic %q", in.Sym)
	}
	return false, nil
}

// internString interns a literal, journaling additions for rollback.
func (m *Machine) internString(s string) *heap.Object {
	before := len(m.Interns.All())
	o := m.Interns.Intern(s)
	if m.journal != nil && len(m.Interns.All()) > before {
		m.journal.internAdds = append(m.journal.internAdds, s)
	}
	return o
}

// access reports an explicit field/array access to the hooks.
func (m *Machine) access(t *thread, o *heap.Object) {
	m.Cycles += costAccess
	if m.Hooks.OnAccess != nil {
		m.Hooks.OnAccess(t.id, o, true)
	}
}

// touch reports an implicit object touch (string intrinsics, print).
func (m *Machine) touch(t *thread, o *heap.Object) {
	m.Cycles += costAccess
	if m.Hooks.OnAccess != nil {
		m.Hooks.OnAccess(t.id, o, false)
	}
}

// spawnTarget resolves a "Class.method" spawn target.
func spawnTarget(p *ir.Program, target string) *ir.Method {
	for i := len(target) - 1; i >= 0; i-- {
		if target[i] == '.' {
			c := p.Class(target[:i])
			if c == nil {
				return nil
			}
			return c.DeclaredMethod(target[i+1:])
		}
	}
	return nil
}

func intArith(op ir.ArithOp, a, b int64) (int64, string) {
	switch op {
	case ir.Add:
		return a + b, ""
	case ir.Sub:
		return a - b, ""
	case ir.Mul:
		return a * b, ""
	case ir.Div:
		if b == 0 {
			return 0, "integer division by zero"
		}
		return a / b, ""
	case ir.Rem:
		if b == 0 {
			return 0, "integer remainder by zero"
		}
		return a % b, ""
	case ir.And:
		return a & b, ""
	case ir.Or:
		return a | b, ""
	case ir.Xor:
		return a ^ b, ""
	case ir.Shl:
		return a << (uint64(b) & 63), ""
	case ir.Shr:
		return a >> (uint64(b) & 63), ""
	default:
		return 0, "invalid arithmetic operator"
	}
}

func floatArith(op ir.ArithOp, a, b float64) float64 {
	switch op {
	case ir.Add:
		return a + b
	case ir.Sub:
		return a - b
	case ir.Mul:
		return a * b
	case ir.Div:
		return a / b
	case ir.Rem:
		return math.Mod(a, b)
	default:
		return math.NaN()
	}
}

func compare(op ir.CmpOp, a, b heap.Value) bool {
	if a.Kind == heap.VRef || b.Kind == heap.VRef {
		switch op {
		case ir.Eq:
			return a.Ref == b.Ref
		case ir.Ne:
			return a.Ref != b.Ref
		default:
			return false
		}
	}
	if a.Kind == heap.VFloat || b.Kind == heap.VFloat {
		x, y := toF(a), toF(b)
		switch op {
		case ir.Eq:
			return x == y
		case ir.Ne:
			return x != y
		case ir.Lt:
			return x < y
		case ir.Le:
			return x <= y
		case ir.Gt:
			return x > y
		case ir.Ge:
			return x >= y
		}
		return false
	}
	x, y := a.Int(), b.Int()
	switch op {
	case ir.Eq:
		return x == y
	case ir.Ne:
		return x != y
	case ir.Lt:
		return x < y
	case ir.Le:
		return x <= y
	case ir.Gt:
		return x > y
	case ir.Ge:
		return x >= y
	}
	return false
}

func toF(v heap.Value) float64 {
	if v.Kind == heap.VFloat {
		return v.Float()
	}
	return float64(v.Int())
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
