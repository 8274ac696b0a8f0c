package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"nimage/internal/heap"
	"nimage/internal/ir"
	"nimage/internal/murmur"
)

// runQuantum executes up to Quantum steps on thread t: one step per IR
// instruction or block terminator. Straight-line code — register ops,
// constants, array, field and static accesses, and jumps — runs in the
// inner loop over the top frame's ops, registers and pc held in locals;
// pc is written back to the frame before any hook, trap or frame change.
// Allocation, calls, intrinsics, returns and class-initialization
// triggers leave the inner loop for step.
func (m *Machine) runQuantum(t *thread) error {
	mixOn := m.mixOn
	for left := m.Quantum; left > 0; left-- {
		if len(t.frames) == 0 {
			t.done = true
			return nil
		}
		if m.stop {
			return nil
		}
		f := t.frames[len(t.frames)-1]
		c, regs, pc := f.code, f.regs, f.pc
		// n counts down the ops the inner loop may run: the rest of the
		// quantum, cut where Steps would pass MaxSteps.
		n := int64(left)
		if m.Steps >= m.MaxSteps {
			n = 1
		} else if budget := m.MaxSteps - m.Steps; budget < n {
			n = budget + 1
		}
		n0 := n
		var o *op
	straight:
		for {
			o = &c.ops[pc]
			pc++
			m.Cycles += costInstr
			if mixOn {
				m.mix[mixOp[o.code]]++
			}
			switch o.code {
			case uint8(ir.OpConstInt):
				v := int64(o.x)
				if o.sub == flagWide {
					v = c.wide(o.x)
				}
				regs[o.a] = heap.IntVal(v)
			case uint8(ir.OpConstFloat):
				v := int64(o.x)
				if o.sub == flagWide {
					v = c.wide(o.x)
				}
				regs[o.a] = heap.Value{Kind: heap.VFloat, Bits: v}
			case uint8(ir.OpConstStr):
				if m.Interns == nil {
					f.pc = pc
					return m.trapf(f, "string literal without %s on classpath", ir.StringClass)
				}
				regs[o.a] = heap.RefVal(m.internString(*c.refs[o.x].(*string)))
			case uint8(ir.OpConstNull):
				regs[o.a] = heap.Null()
			case uint8(ir.OpMove):
				regs[o.a] = regs[o.b]
			case opAdd:
				regs[o.a] = heap.IntVal(regs[o.b].Bits + regs[o.c].Bits)
			case opSub:
				regs[o.a] = heap.IntVal(regs[o.b].Bits - regs[o.c].Bits)
			case opMul:
				regs[o.a] = heap.IntVal(regs[o.b].Bits * regs[o.c].Bits)
			case opDiv:
				y := regs[o.c].Bits
				if y == 0 {
					f.pc = pc
					return m.trapf(f, "integer division by zero")
				}
				regs[o.a] = heap.IntVal(regs[o.b].Bits / y)
			case opRem:
				y := regs[o.c].Bits
				if y == 0 {
					f.pc = pc
					return m.trapf(f, "integer remainder by zero")
				}
				regs[o.a] = heap.IntVal(regs[o.b].Bits % y)
			case opAnd:
				regs[o.a] = heap.IntVal(regs[o.b].Bits & regs[o.c].Bits)
			case opOr:
				regs[o.a] = heap.IntVal(regs[o.b].Bits | regs[o.c].Bits)
			case opXor:
				regs[o.a] = heap.IntVal(regs[o.b].Bits ^ regs[o.c].Bits)
			case opShl:
				regs[o.a] = heap.IntVal(regs[o.b].Bits << (uint64(regs[o.c].Bits) & 63))
			case opShr:
				regs[o.a] = heap.IntVal(regs[o.b].Bits >> (uint64(regs[o.c].Bits) & 63))
			case opFAdd:
				regs[o.a] = heap.FloatVal(regs[o.b].Float() + regs[o.c].Float())
			case opFSub:
				regs[o.a] = heap.FloatVal(regs[o.b].Float() - regs[o.c].Float())
			case opFMul:
				regs[o.a] = heap.FloatVal(regs[o.b].Float() * regs[o.c].Float())
			case opFDiv:
				regs[o.a] = heap.FloatVal(regs[o.b].Float() / regs[o.c].Float())
			case opFRem:
				regs[o.a] = heap.FloatVal(math.Mod(regs[o.b].Float(), regs[o.c].Float()))
			case opEq:
				x, y := regs[o.b], regs[o.c]
				switch {
				case x.Kind|y.Kind == heap.VInt:
					regs[o.a] = heap.IntVal(boolInt(x.Bits == y.Bits))
				case x.Kind == heap.VRef || y.Kind == heap.VRef:
					regs[o.a] = heap.IntVal(boolInt(x.Ref == y.Ref))
				default:
					regs[o.a] = heap.IntVal(boolInt(compare(ir.Eq, x, y)))
				}
			case opNe:
				x, y := regs[o.b], regs[o.c]
				switch {
				case x.Kind|y.Kind == heap.VInt:
					regs[o.a] = heap.IntVal(boolInt(x.Bits != y.Bits))
				case x.Kind == heap.VRef || y.Kind == heap.VRef:
					regs[o.a] = heap.IntVal(boolInt(x.Ref != y.Ref))
				default:
					regs[o.a] = heap.IntVal(boolInt(compare(ir.Ne, x, y)))
				}
			case opLt:
				x, y := regs[o.b], regs[o.c]
				if x.Kind|y.Kind == heap.VInt {
					regs[o.a] = heap.IntVal(boolInt(x.Bits < y.Bits))
				} else {
					regs[o.a] = heap.IntVal(boolInt(compare(ir.Lt, x, y)))
				}
			case opLe:
				x, y := regs[o.b], regs[o.c]
				if x.Kind|y.Kind == heap.VInt {
					regs[o.a] = heap.IntVal(boolInt(x.Bits <= y.Bits))
				} else {
					regs[o.a] = heap.IntVal(boolInt(compare(ir.Le, x, y)))
				}
			case opGt:
				x, y := regs[o.b], regs[o.c]
				if x.Kind|y.Kind == heap.VInt {
					regs[o.a] = heap.IntVal(boolInt(x.Bits > y.Bits))
				} else {
					regs[o.a] = heap.IntVal(boolInt(compare(ir.Gt, x, y)))
				}
			case opGe:
				x, y := regs[o.b], regs[o.c]
				if x.Kind|y.Kind == heap.VInt {
					regs[o.a] = heap.IntVal(boolInt(x.Bits >= y.Bits))
				} else {
					regs[o.a] = heap.IntVal(boolInt(compare(ir.Ge, x, y)))
				}
			case uint8(ir.OpArith):
				v, e := intArith(ir.ArithOp(o.sub), regs[o.b].Int(), regs[o.c].Int())
				if e != "" {
					f.pc = pc
					return m.trapf(f, "%s", e)
				}
				regs[o.a] = heap.IntVal(v)
			case uint8(ir.OpFArith):
				regs[o.a] = heap.FloatVal(floatArith(ir.ArithOp(o.sub), regs[o.b].Float(), regs[o.c].Float()))
			case uint8(ir.OpCmp):
				regs[o.a] = heap.IntVal(boolInt(compare(ir.CmpOp(o.sub), regs[o.b], regs[o.c])))
			case uint8(ir.OpConvIF):
				regs[o.a] = heap.FloatVal(float64(regs[o.b].Int()))
			case uint8(ir.OpConvFI):
				regs[o.a] = heap.IntVal(int64(regs[o.b].Float()))
			case uint8(ir.OpNewArray):
				n := regs[o.b].Int()
				if n < 0 || n > 1<<26 {
					f.pc = pc
					return m.trapf(f, "array length %d out of range", n)
				}
				m.Cycles += costAlloc + n/8
				regs[o.a] = heap.RefVal(heap.NewArray(c.refs[o.x].(*ir.TypeRef), int(n)))
			case uint8(ir.OpArrayGet):
				a := regs[o.b].Ref
				if a == nil {
					f.pc = pc
					return m.trapf(f, "null array load")
				}
				i := regs[o.c].Int()
				if i < 0 || i >= int64(a.Len()) {
					f.pc = pc
					return m.trapf(f, "index %d out of bounds [0,%d)", i, a.Len())
				}
				f.pc = pc
				m.access(t, a)
				regs[o.a] = a.GetElem(int(i))
			case uint8(ir.OpArraySet):
				a := regs[o.a].Ref
				if a == nil {
					f.pc = pc
					return m.trapf(f, "null array store")
				}
				i := regs[o.b].Int()
				if i < 0 || i >= int64(a.Len()) {
					f.pc = pc
					return m.trapf(f, "index %d out of bounds [0,%d)", i, a.Len())
				}
				f.pc = pc
				m.access(t, a)
				m.recordElemWrite(a, int(i))
				a.SetElem(int(i), regs[o.c])
			case uint8(ir.OpArrayLen):
				a := regs[o.b].Ref
				if a == nil {
					f.pc = pc
					return m.trapf(f, "null array length")
				}
				f.pc = pc
				m.access(t, a)
				regs[o.a] = heap.IntVal(int64(a.Len()))
			case uint8(ir.OpGetField):
				fl := c.refs[o.x].(*ir.Field)
				obj := regs[o.b].Ref
				if obj == nil {
					f.pc = pc
					return m.trapf(f, "null field load of %s", fl.Descriptor())
				}
				f.pc = pc
				m.access(t, obj)
				regs[o.a] = obj.GetField(fl)
			case uint8(ir.OpPutField):
				fl := c.refs[o.x].(*ir.Field)
				obj := regs[o.a].Ref
				if obj == nil {
					f.pc = pc
					return m.trapf(f, "null field store of %s", fl.Descriptor())
				}
				f.pc = pc
				m.access(t, obj)
				m.recordFieldWrite(obj, fl)
				obj.SetField(fl, regs[o.b])
			case uint8(ir.OpGetStatic), uint8(ir.OpPutStatic):
				if o.sub == flagClinit && m.AutoClinit && !m.clinitDone[c.trigger(o).ID] {
					break straight
				}
				m.static(regs, c, o)
			case opGoto:
				pc = int(c.aux[o.x])
				if m.Hooks.OnBlock != nil {
					f.pc = pc
					m.Hooks.OnBlock(t.id, f.m, int(o.x))
				}
			case opIf:
				b := o.elseBlock()
				if regs[o.a].Truthy() {
					b = o.x
				}
				pc = int(c.aux[b])
				if m.Hooks.OnBlock != nil {
					f.pc = pc
					m.Hooks.OnBlock(t.id, f.m, int(b))
				}
			default:
				break straight
			}
			m.Steps++
			if n--; n == 0 {
				f.pc = pc
				if m.Steps > m.MaxSteps {
					return m.budgetExhausted()
				}
				return nil
			}
		}
		left -= int(n0 - n)
		f.pc = pc
		yielded, err := m.step(t, f, o)
		if err != nil {
			return err
		}
		m.Steps++
		if m.Steps > m.MaxSteps {
			return m.budgetExhausted()
		}
		if yielded {
			return nil
		}
	}
	return nil
}

func (m *Machine) budgetExhausted() error {
	return fmt.Errorf("vm: step budget %d exhausted in %s", m.MaxSteps, m.Prog.Name)
}

// step executes o, the op before f.pc, which runQuantum has charged but
// does not run in its inner loop. It reports whether the thread
// voluntarily yielded its time slice.
func (m *Machine) step(t *thread, f *frame, o *op) (yielded bool, err error) {
	c := f.code
	switch o.code {
	case uint8(ir.OpNew):
		if m.initFirst(t, f, o) {
			return false, nil
		}
		cls := c.refs[o.x].(*ir.Class)
		m.Cycles += costAlloc
		if m.Hooks.OnNew != nil {
			m.Hooks.OnNew(t.id, cls)
		}
		f.regs[o.a] = heap.RefVal(heap.NewObject(cls))
	case uint8(ir.OpGetStatic), uint8(ir.OpPutStatic):
		if m.initFirst(t, f, o) {
			return false, nil
		}
		m.static(f.regs, c, o)
	case uint8(ir.OpCall):
		if m.initFirst(t, f, o) {
			return false, nil
		}
		return false, m.call(t, f, o)
	case uint8(ir.OpCallVirt):
		return false, m.call(t, f, o)
	case uint8(ir.OpIntrinsic):
		return m.intrinsic(t, f, o)
	case opReturn:
		m.ret(t, f, o)
	case opBadTerm:
		f.pc--
		return false, m.trapf(f, "invalid terminator %d", o.x)
	default:
		return false, m.trapf(f, "invalid opcode %d", o.code)
	}
	return false, nil
}

// initFirst starts the initialization of the class a new, static access
// or static call o triggers (flagClinit): on an AutoClinit machine, it
// pushes the pending initializers and rewinds f so the op executes again
// once they return.
func (m *Machine) initFirst(t *thread, f *frame, o *op) bool {
	if o.sub != flagClinit || !m.AutoClinit {
		return false
	}
	k := f.code.trigger(o)
	if m.clinitDone[k.ID] || !m.ensureInit(t, k) {
		return false
	}
	f.pc--
	return true
}

// static executes a getstatic or putstatic.
func (m *Machine) static(regs []heap.Value, c *code, o *op) {
	m.Cycles += costAccess
	fl := c.refs[o.x].(*ir.Field)
	if o.code == uint8(ir.OpGetStatic) {
		regs[o.a] = m.Statics.Get(fl)
		return
	}
	m.recordStaticWrite(fl)
	m.Statics.Set(fl, regs[o.a])
}

// ret leaves the method of the top frame f.
func (m *Machine) ret(t *thread, f *frame, o *op) {
	ret := heap.Null()
	if o.a != noReg {
		ret = f.regs[o.a]
	}
	if m.Hooks.OnMethodExit != nil {
		m.Hooks.OnMethodExit(t.id, f.m)
	}
	t.frames = t.frames[:len(t.frames)-1]
	m.freeFrames = append(m.freeFrames, f)
	if len(t.frames) == 0 {
		m.lastResult = ret
		t.done = true
		return
	}
	if f.retReg >= 0 {
		t.frames[len(t.frames)-1].regs[f.retReg] = ret
	}
}

// call pushes a new frame for a (possibly virtual) invocation.
func (m *Machine) call(t *thread, f *frame, o *op) error {
	m.Cycles += costCall
	target, args := f.code.siteAt(o.x)
	callee := target.(*ir.Method)
	if o.code == uint8(ir.OpCallVirt) {
		recv := f.regs[args[0]].Ref
		if recv == nil {
			return m.trapf(f, "virtual call %s on null receiver", callee.Signature())
		}
		if recv.Class == nil {
			return m.trapf(f, "virtual call %s on array", callee.Signature())
		}
		name := callee.Name
		callee = recv.Class.Dispatch(callee.Selector)
		if callee == nil {
			return m.trapf(f, "no target for %s on %s", name, recv.Class.Name)
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
	retReg := int(ir.NoReg)
	if o.a != noReg {
		retReg = int(o.a)
	}
	nf := m.newFrame(callee, ctx, retReg, len(args))
	for i, a := range args {
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

// intrinsic executes a built-in operation. Resolve has checked its
// argument count against the intrinsic table.
func (m *Machine) intrinsic(t *thread, f *frame, o *op) (yielded bool, err error) {
	m.Cycles += costIntrinsic
	id := ir.IntrinsicID(o.sub)
	name, args := f.code.siteAt(o.x)
	regs := f.regs
	argS := func(k int) (*heap.Object, error) {
		s := regs[args[k]].Ref
		if s == nil || !s.IsString() {
			return nil, m.trapf(f, "intrinsic %s: argument %d is not a string", id.Name(), k)
		}
		return s, nil
	}
	switch id {
	case ir.IntrPrint:
		if s := regs[args[0]].Ref; s != nil {
			m.touch(t, s)
		}
		if m.Hooks.OnPrint != nil {
			m.Hooks.OnPrint(t.id, regs[args[0]])
		}
		m.Cycles += 20
	case ir.IntrArg:
		idx := regs[args[0]].Int()
		if idx < 0 || idx >= int64(len(m.IntArgs)) {
			return false, m.trapf(f, "arg index %d out of range [0,%d)", idx, len(m.IntArgs))
		}
		regs[o.a] = heap.IntVal(m.IntArgs[idx])
	case ir.IntrRespond:
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
	case ir.IntrSpawn:
		target := spawnTarget(m.Prog, *name.(*string))
		if target == nil || !target.Static {
			return false, m.trapf(f, "spawn target %q not found or not static", *name.(*string))
		}
		vals := make([]heap.Value, len(args))
		for i, a := range args {
			vals[i] = regs[a]
		}
		m.Cycles += 200 // thread creation cost
		m.spawnThread(target, vals)
	case ir.IntrYield:
		return true, nil
	case ir.IntrBuildSalt:
		m.saltCtr++
		var buf [16]byte
		binary.LittleEndian.PutUint64(buf[:8], m.BuildSalt)
		binary.LittleEndian.PutUint64(buf[8:], m.saltCtr)
		regs[o.a] = heap.IntVal(int64(murmur.Sum64(buf[:])))
	case ir.IntrIntern:
		s, e := argS(0)
		if e != nil {
			return false, e
		}
		m.access(t, s)
		regs[o.a] = heap.RefVal(m.internString(s.Str))
	case ir.IntrConcat:
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
		regs[o.a] = heap.RefVal(heap.NewString(m.stringClass, a.Str+b.Str))
	case ir.IntrStrLen:
		s, e := argS(0)
		if e != nil {
			return false, e
		}
		m.access(t, s)
		regs[o.a] = heap.IntVal(int64(len(s.Str)))
	case ir.IntrStrHash:
		s, e := argS(0)
		if e != nil {
			return false, e
		}
		m.access(t, s)
		m.Cycles += int64(len(s.Str)) / 4
		regs[o.a] = heap.IntVal(int64(murmur.Sum64([]byte(s.Str))))
	case ir.IntrStrChar:
		s, e := argS(0)
		if e != nil {
			return false, e
		}
		m.access(t, s)
		idx := regs[args[1]].Int()
		if idx < 0 || idx >= int64(len(s.Str)) {
			return false, m.trapf(f, "strchar index %d out of range [0,%d)", idx, len(s.Str))
		}
		regs[o.a] = heap.IntVal(int64(s.Str[idx]))
	case ir.IntrStrEq:
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
		regs[o.a] = heap.IntVal(boolInt(a.Str == b.Str))
	case ir.IntrItoa:
		regs[o.a] = heap.RefVal(heap.NewString(m.stringClass, strconv.FormatInt(regs[args[0]].Int(), 10)))
	case ir.IntrAbsF:
		regs[o.a] = heap.FloatVal(math.Abs(regs[args[0]].Float()))
	case ir.IntrSqrt:
		regs[o.a] = heap.FloatVal(math.Sqrt(regs[args[0]].Float()))
	case ir.IntrCos:
		regs[o.a] = heap.FloatVal(math.Cos(regs[args[0]].Float()))
	case ir.IntrSin:
		regs[o.a] = heap.FloatVal(math.Sin(regs[args[0]].Float()))
	default:
		return false, m.trapf(f, "unknown intrinsic %q", *name.(*string))
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
	if o.InSnapshot() || m.Hooks.OnAccess != nil {
		m.fireAccess(t, o, true)
	}
}

// touch reports an implicit object touch (string intrinsics, print).
func (m *Machine) touch(t *thread, o *heap.Object) {
	m.Cycles += costAccess
	if o.InSnapshot() || m.Hooks.OnAccess != nil {
		m.fireAccess(t, o, false)
	}
}

// fireAccess calls the access hooks that o's touch concerns. It is kept out
// of access, which calls it only for a snapshot object or when OnAccess
// is set, so that access stays small enough to inline.
func (m *Machine) fireAccess(t *thread, o *heap.Object, instr bool) {
	if h := m.Hooks.OnSnapshotAccess; h != nil && o.InSnapshot() {
		h(t.id, o, instr)
	}
	if h := m.Hooks.OnAccess; h != nil {
		h(t.id, o, instr)
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
