package ir

import (
	"fmt"
	"math"
)

// Reg names a virtual register of the method under construction.
type Reg int

// NoReg marks an absent destination register.
const NoReg Reg = -1

// MaxRegs bounds a method's register file, so that every register index,
// and NoReg, fits in 16 bits: registers are [0, MaxRegs), and the 16-bit
// register fields of Instr and Term hold NoReg as RegNone.
const MaxRegs = 1<<16 - 1

// RegNone is NoReg in a 16-bit register field.
const RegNone uint16 = MaxRegs

// narrowReg returns r as a 16-bit register field. It reports false for a
// value outside [NoReg, MaxRegs), which has no 16-bit form: truncating it
// could wrap it into a valid register.
func narrowReg(r int64) (uint16, bool) {
	switch {
	case r == int64(NoReg):
		return RegNone, true
	case r < 0 || r >= MaxRegs:
		return 0, false
	}
	return uint16(r), true
}

// wideReg returns the register a 16-bit register field holds, NoReg for
// RegNone.
func wideReg(r uint16) Reg {
	if r == RegNone {
		return NoReg
	}
	return Reg(r)
}

// Builder constructs a Program. Workloads use it as an embedded DSL; the
// synthetic-library generator drives it programmatically.
type Builder struct {
	p       *Program
	methods []*MethodBuilder
	errs    []error

	// arena holds the instructions of blocks under construction, and open
	// is the block that ends where the arena's used part ends (see emit).
	// Build copies every block out, so the arena is scratch.
	arena []Instr
	open  *Block
	// slab holds the Operands and Blocks built so far; unlike the arena,
	// the program keeps it.
	slab codeSlab
	// builders holds the chunks every BlockBuilder is carved from, in
	// creation order; the last one is being filled.
	builders [][]BlockBuilder
}

// arenaChunk is the capacity, in instructions, of each arena chunk.
const arenaChunk = 512

// NewBuilder starts building a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{p: &Program{Name: name}}
}

func (b *Builder) errorf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// Class declares a class and returns its builder.
func (b *Builder) Class(name string) *ClassBuilder {
	c := &Class{Name: name}
	b.p.Classes = append(b.p.Classes, c)
	return &ClassBuilder{b: b, c: c}
}

// SetEntry declares the program entry point (a static method).
func (b *Builder) SetEntry(class, method string) {
	b.p.EntryClass = class
	b.p.EntryMethod = method
}

// Resource registers an embedded resource of the given size in bytes.
func (b *Builder) Resource(name string, size int) {
	b.p.Resources = append(b.p.Resources, Resource{Name: name, Size: size})
}

// Build finalizes and resolves the program.
func (b *Builder) Build() (*Program, error) {
	for _, chunk := range b.builders {
		for i := range chunk {
			if bb := &chunk[i]; !bb.terminated {
				b.errorf("ir: %s: block %d not terminated", bb.mb.m.Signature(), bb.blk.Index)
			}
		}
	}
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("ir: %d build errors, first: %w", len(b.errs), b.errs[0])
	}
	for _, mb := range b.methods {
		packBlocks(mb.m)
	}
	b.arena, b.open, b.slab.interned = nil, nil, nil
	if err := b.p.Resolve(); err != nil {
		return nil, err
	}
	return b.p, nil
}

// packBlocks moves the instructions of m's blocks into one backing array
// of exactly their total length, each block's Instrs a capped sub-slice of
// it, so that the program keeps neither the arena nor the slack of blocks
// that grew by themselves. Blocks without instructions keep theirs.
func packBlocks(m *Method) {
	n := 0
	for _, blk := range m.Blocks {
		n += len(blk.Instrs)
	}
	all := make([]Instr, 0, n)
	for _, blk := range m.Blocks {
		if len(blk.Instrs) == 0 {
			continue
		}
		start := len(all)
		all = append(all, blk.Instrs...)
		blk.Instrs = all[start:len(all):len(all)]
	}
}

// MustBuild is Build that panics on error; intended for statically known
// workload definitions.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// ClassBuilder constructs one class.
type ClassBuilder struct {
	b *Builder
	c *Class
}

// Name returns the fully qualified name of the class under construction.
func (cb *ClassBuilder) Name() string { return cb.c.Name }

// Extends sets the superclass.
func (cb *ClassBuilder) Extends(super string) *ClassBuilder {
	cb.c.SuperName = super
	return cb
}

// Field declares an instance field.
func (cb *ClassBuilder) Field(name string, t TypeRef) *ClassBuilder {
	cb.c.Fields = append(cb.c.Fields, &Field{Name: name, Type: t})
	return cb
}

// Static declares a static field.
func (cb *ClassBuilder) Static(name string, t TypeRef) *ClassBuilder {
	cb.c.Statics = append(cb.c.Statics, &Field{Name: name, Type: t, Static: true})
	return cb
}

// Method declares an instance method with the given value-parameter count
// (the receiver is parameter register 0, so NParams = params+1).
func (cb *ClassBuilder) Method(name string, params int, returns TypeRef) *MethodBuilder {
	return cb.newMethod(name, params+1, returns, false, false)
}

// StaticMethod declares a static method.
func (cb *ClassBuilder) StaticMethod(name string, params int, returns TypeRef) *MethodBuilder {
	return cb.newMethod(name, params, returns, true, false)
}

// Clinit declares the class initializer, which the image builder executes at
// build time.
func (cb *ClassBuilder) Clinit() *MethodBuilder {
	return cb.newMethod("<clinit>", 0, Void(), true, true)
}

func (cb *ClassBuilder) newMethod(name string, nparams int, returns TypeRef, static, clinit bool) *MethodBuilder {
	m := &Method{
		Class:   cb.c,
		Name:    name,
		Static:  static,
		Clinit:  clinit,
		NParams: nparams,
		Returns: returns,
		NumRegs: nparams,
	}
	cb.c.Methods = append(cb.c.Methods, m)
	mb := &MethodBuilder{b: cb.b, m: m}
	mb.entry = mb.NewBlock()
	cb.b.methods = append(cb.b.methods, mb)
	return mb
}

// MethodBuilder constructs one method body.
type MethodBuilder struct {
	b     *Builder
	m     *Method
	entry *BlockBuilder
}

// Method returns the method under construction.
func (mb *MethodBuilder) Method() *Method { return mb.m }

// Entry returns the entry block builder.
func (mb *MethodBuilder) Entry() *BlockBuilder { return mb.entry }

// This returns the receiver register of an instance method.
func (mb *MethodBuilder) This() Reg { return 0 }

// Param returns the i-th value parameter register (skipping the receiver for
// instance methods).
func (mb *MethodBuilder) Param(i int) Reg {
	if mb.m.Static {
		return Reg(i)
	}
	return Reg(i + 1)
}

// NewBlock appends a fresh basic block.
func (mb *MethodBuilder) NewBlock() *BlockBuilder {
	b := mb.b
	if len(mb.m.Blocks) == math.MaxInt32 {
		b.errorf("ir: %s: more than %d blocks", mb.m.Signature(), math.MaxInt32)
	}
	blk := b.slab.block(len(mb.m.Blocks))
	mb.m.Blocks = append(mb.m.Blocks, blk)
	if n := len(b.builders); n == 0 || len(b.builders[n-1]) == blockChunk {
		b.builders = append(b.builders, make([]BlockBuilder, 0, blockChunk))
	}
	bb := carve(&b.builders[len(b.builders)-1], blockChunk)
	bb.mb, bb.blk = mb, blk
	return bb
}

// NewReg allocates a fresh register.
func (mb *MethodBuilder) NewReg() Reg {
	r := Reg(mb.m.NumRegs)
	mb.m.NumRegs++
	return r
}

// BlockBuilder appends instructions to one basic block and finally sets its
// terminator. Every block must be terminated exactly once.
type BlockBuilder struct {
	mb         *MethodBuilder
	blk        *Block
	terminated bool
}

// Index returns the block index.
func (bb *BlockBuilder) Index() int { return int(bb.blk.Index) }

// reg narrows a register for an instruction or terminator of the block. A
// register outside [NoReg, MaxRegs) fails Build instead of wrapping.
func (bb *BlockBuilder) reg(x Reg) uint16 {
	v, ok := narrowReg(int64(x))
	if !ok {
		bb.mb.b.errorf("ir: %s: block %d: register %d outside [%d, %d)", bb.mb.m.Signature(), bb.blk.Index, x, NoReg, MaxRegs)
	}
	return v
}

func (bb *BlockBuilder) emit(in Instr) {
	if bb.terminated {
		bb.mb.b.errorf("ir: %s: emit into terminated block %d", bb.mb.m.Signature(), bb.blk.Index)
		return
	}
	b, blk := bb.mb.b, bb.blk
	switch {
	case blk == b.open && len(b.arena) < cap(b.arena):
		// The open block extends in place.
		b.arena = append(b.arena, in)
		end := len(b.arena)
		blk.Instrs = b.arena[end-len(blk.Instrs)-1 : end : end]
	case len(blk.Instrs) == 0:
		// A block's first instruction opens it at the arena's end.
		if len(b.arena) == cap(b.arena) {
			b.arena = make([]Instr, 0, arenaChunk)
		}
		b.arena = append(b.arena, in)
		end := len(b.arena)
		blk.Instrs = b.arena[end-1 : end : end]
		b.open = blk
	default:
		// A block written again after another block opened, or one that
		// filled its chunk, grows by itself: its capped slice moves out of
		// the arena on this append.
		blk.Instrs = append(blk.Instrs, in)
	}
}

// emitOperand emits in with a slab copy of o as its Operand.
func (bb *BlockBuilder) emitOperand(in Instr, o Operand) {
	in.Operand = bb.mb.b.slab.operand(o)
	bb.emit(in)
}

func (bb *BlockBuilder) dest() Reg { return bb.mb.NewReg() }

// ConstInt loads an integer literal.
func (bb *BlockBuilder) ConstInt(v int64) Reg {
	d := bb.dest()
	bb.emit(Instr{Op: OpConstInt, A: bb.reg(d), Val: v})
	return d
}

// ConstFloat loads a float literal.
func (bb *BlockBuilder) ConstFloat(v float64) Reg {
	d := bb.dest()
	bb.emit(Instr{Op: OpConstFloat, A: bb.reg(d), Val: int64(math.Float64bits(v))})
	return d
}

// Str loads a string literal.
func (bb *BlockBuilder) Str(s string) Reg {
	d := bb.dest()
	bb.emitOperand(Instr{Op: OpConstStr, A: bb.reg(d)}, Operand{Sym: s})
	return d
}

// Null loads the null reference.
func (bb *BlockBuilder) Null() Reg {
	d := bb.dest()
	bb.emit(Instr{Op: OpConstNull, A: bb.reg(d)})
	return d
}

// Move copies src into a fresh register.
func (bb *BlockBuilder) Move(src Reg) Reg {
	d := bb.dest()
	bb.emit(Instr{Op: OpMove, A: bb.reg(d), B: bb.reg(src)})
	return d
}

// MoveTo copies src into dst (used for loop-carried variables).
func (bb *BlockBuilder) MoveTo(dst, src Reg) {
	bb.emit(Instr{Op: OpMove, A: bb.reg(dst), B: bb.reg(src)})
}

// Arith computes an integer a <op> b into a fresh register.
func (bb *BlockBuilder) Arith(op ArithOp, a, b Reg) Reg {
	d := bb.dest()
	bb.emit(Instr{Op: OpArith, A: bb.reg(d), B: bb.reg(a), C: bb.reg(b), Val: int64(op)})
	return d
}

// ArithTo computes an integer a <op> b into dst.
func (bb *BlockBuilder) ArithTo(dst Reg, op ArithOp, a, b Reg) {
	bb.emit(Instr{Op: OpArith, A: bb.reg(dst), B: bb.reg(a), C: bb.reg(b), Val: int64(op)})
}

// FArith computes a float a <op> b into a fresh register.
func (bb *BlockBuilder) FArith(op ArithOp, a, b Reg) Reg {
	d := bb.dest()
	bb.emit(Instr{Op: OpFArith, A: bb.reg(d), B: bb.reg(a), C: bb.reg(b), Val: int64(op)})
	return d
}

// Cmp compares a and b, producing 0/1.
func (bb *BlockBuilder) Cmp(op CmpOp, a, b Reg) Reg {
	d := bb.dest()
	bb.emit(Instr{Op: OpCmp, A: bb.reg(d), B: bb.reg(a), C: bb.reg(b), Val: int64(op)})
	return d
}

// IntToFloat converts an integer register to float.
func (bb *BlockBuilder) IntToFloat(a Reg) Reg {
	d := bb.dest()
	bb.emit(Instr{Op: OpConvIF, A: bb.reg(d), B: bb.reg(a)})
	return d
}

// FloatToInt truncates a float register to integer.
func (bb *BlockBuilder) FloatToInt(a Reg) Reg {
	d := bb.dest()
	bb.emit(Instr{Op: OpConvFI, A: bb.reg(d), B: bb.reg(a)})
	return d
}

// New allocates an instance of the named class.
func (bb *BlockBuilder) New(class string) Reg {
	d := bb.dest()
	bb.emitOperand(Instr{Op: OpNew, A: bb.reg(d)}, Operand{Type: bb.mb.b.slab.typeRef(Ref(class))})
	return d
}

// NewArray allocates an array with the given element type and length.
func (bb *BlockBuilder) NewArray(elem TypeRef, length Reg) Reg {
	d := bb.dest()
	bb.emitOperand(Instr{Op: OpNewArray, A: bb.reg(d), B: bb.reg(length)}, Operand{Type: bb.mb.b.slab.typeRef(elem)})
	return d
}

// AGet loads arr[idx].
func (bb *BlockBuilder) AGet(arr, idx Reg) Reg {
	d := bb.dest()
	bb.emit(Instr{Op: OpArrayGet, A: bb.reg(d), B: bb.reg(arr), C: bb.reg(idx)})
	return d
}

// ASet stores arr[idx] = val.
func (bb *BlockBuilder) ASet(arr, idx, val Reg) {
	bb.emit(Instr{Op: OpArraySet, A: bb.reg(arr), B: bb.reg(idx), C: bb.reg(val)})
}

// ALen loads the length of arr.
func (bb *BlockBuilder) ALen(arr Reg) Reg {
	d := bb.dest()
	bb.emit(Instr{Op: OpArrayLen, A: bb.reg(d), B: bb.reg(arr)})
	return d
}

// GetField loads obj.field (field declared on or inherited by class).
func (bb *BlockBuilder) GetField(obj Reg, class, field string) Reg {
	d := bb.dest()
	bb.emitOperand(Instr{Op: OpGetField, A: bb.reg(d), B: bb.reg(obj)}, Operand{CName: class, Sym: field})
	return d
}

// PutField stores obj.field = val.
func (bb *BlockBuilder) PutField(obj Reg, class, field string, val Reg) {
	bb.emitOperand(Instr{Op: OpPutField, A: bb.reg(obj), B: bb.reg(val)}, Operand{CName: class, Sym: field})
}

// GetStatic loads a static field.
func (bb *BlockBuilder) GetStatic(class, field string) Reg {
	d := bb.dest()
	bb.emitOperand(Instr{Op: OpGetStatic, A: bb.reg(d)}, Operand{CName: class, Sym: field})
	return d
}

// PutStatic stores a static field.
func (bb *BlockBuilder) PutStatic(class, field string, val Reg) {
	bb.emitOperand(Instr{Op: OpPutStatic, A: bb.reg(val)}, Operand{CName: class, Sym: field})
}

// Call invokes a statically bound method and returns the result register.
func (bb *BlockBuilder) Call(class, method string, args ...Reg) Reg {
	d := bb.dest()
	bb.emitOperand(Instr{Op: OpCall, A: bb.reg(d)}, Operand{CName: class, Sym: method, Args: bb.regs(args)})
	return d
}

// CallVoid invokes a statically bound method, discarding any result.
func (bb *BlockBuilder) CallVoid(class, method string, args ...Reg) {
	bb.emitOperand(Instr{Op: OpCall, A: RegNone}, Operand{CName: class, Sym: method, Args: bb.regs(args)})
}

// CallVirt invokes a method with dynamic dispatch on args[0].
func (bb *BlockBuilder) CallVirt(class, method string, args ...Reg) Reg {
	d := bb.dest()
	bb.emitOperand(Instr{Op: OpCallVirt, A: bb.reg(d)}, Operand{CName: class, Sym: method, Args: bb.regs(args)})
	return d
}

// CallVirtVoid invokes a method with dynamic dispatch, discarding any result.
func (bb *BlockBuilder) CallVirtVoid(class, method string, args ...Reg) {
	bb.emitOperand(Instr{Op: OpCallVirt, A: RegNone}, Operand{CName: class, Sym: method, Args: bb.regs(args)})
}

// Intrinsic invokes a value-producing intrinsic.
func (bb *BlockBuilder) Intrinsic(name string, args ...Reg) Reg {
	d := bb.dest()
	bb.emitOperand(Instr{Op: OpIntrinsic, A: bb.reg(d)}, Operand{Sym: name, Args: bb.regs(args)})
	return d
}

// IntrinsicVoid invokes a side-effect-only intrinsic.
func (bb *BlockBuilder) IntrinsicVoid(name string, args ...Reg) {
	bb.emitOperand(Instr{Op: OpIntrinsic, A: RegNone}, Operand{Sym: name, Args: bb.regs(args)})
}

// Spawn starts a thread running the static method target ("Class.method")
// with the given arguments.
func (bb *BlockBuilder) Spawn(target string, args ...Reg) {
	bb.emitOperand(Instr{Op: OpIntrinsic, A: RegNone}, Operand{Sym: IntrinsicSpawn, CName: target, Args: bb.regs(args)})
}

// Goto terminates the block with an unconditional jump.
func (bb *BlockBuilder) Goto(t *BlockBuilder) {
	bb.terminate(Term{Op: TermGoto, Then: t.blk.Index})
}

// If terminates the block with a conditional branch.
func (bb *BlockBuilder) If(cond Reg, then, els *BlockBuilder) {
	bb.terminate(Term{Op: TermIf, Cond: bb.reg(cond), Then: then.blk.Index, Else: els.blk.Index})
}

// Ret terminates the block returning v.
func (bb *BlockBuilder) Ret(v Reg) {
	bb.terminate(Term{Op: TermReturn, Ret: bb.reg(v)})
}

// RetVoid terminates the block with a void return.
func (bb *BlockBuilder) RetVoid() {
	bb.terminate(Term{Op: TermReturn, Ret: RegNone})
}

func (bb *BlockBuilder) terminate(t Term) {
	if bb.terminated {
		bb.mb.b.errorf("ir: %s: block %d terminated twice", bb.mb.m.Signature(), bb.blk.Index)
		return
	}
	bb.blk.Term = t
	bb.terminated = true
}

// For emits a counted loop `for i := from; i < to; i += step { body }`
// starting from the receiver block. The body callback receives the first
// body block and the loop register, and must return the (unterminated) block
// where the body ends; For wires it back to the header. For returns the exit
// block, where construction continues.
func (bb *BlockBuilder) For(from, to Reg, step int64, body func(b *BlockBuilder, i Reg) *BlockBuilder) *BlockBuilder {
	mb := bb.mb
	i := bb.Move(from)
	head := mb.NewBlock()
	bodyBlk := mb.NewBlock()
	exit := mb.NewBlock()
	bb.Goto(head)
	cond := head.Cmp(Lt, i, to)
	head.If(cond, bodyBlk, exit)
	end := body(bodyBlk, i)
	stepR := end.ConstInt(step)
	end.ArithTo(i, Add, i, stepR)
	end.Goto(head)
	return exit
}

// While emits a loop whose condition is recomputed in a header block by the
// cond callback; body as in For. Returns the exit block.
func (bb *BlockBuilder) While(cond func(h *BlockBuilder) Reg, body func(b *BlockBuilder) *BlockBuilder) *BlockBuilder {
	mb := bb.mb
	head := mb.NewBlock()
	bodyBlk := mb.NewBlock()
	exit := mb.NewBlock()
	bb.Goto(head)
	c := cond(head)
	head.If(c, bodyBlk, exit)
	end := body(bodyBlk)
	end.Goto(head)
	return exit
}

// IfThen emits a one-armed conditional; fill must return its final
// unterminated block. Returns the join block.
func (bb *BlockBuilder) IfThen(cond Reg, fill func(t *BlockBuilder) *BlockBuilder) *BlockBuilder {
	mb := bb.mb
	then := mb.NewBlock()
	join := mb.NewBlock()
	bb.If(cond, then, join)
	end := fill(then)
	end.Goto(join)
	return join
}

// IfElse emits a two-armed conditional; each arm callback returns its final
// unterminated block. Returns the join block.
func (bb *BlockBuilder) IfElse(cond Reg, fillT, fillE func(b *BlockBuilder) *BlockBuilder) *BlockBuilder {
	mb := bb.mb
	then := mb.NewBlock()
	els := mb.NewBlock()
	join := mb.NewBlock()
	bb.If(cond, then, els)
	fillT(then).Goto(join)
	fillE(els).Goto(join)
	return join
}

// regs copies argument registers into the builder's slab. Each is bounded
// as reg bounds it, so none is truncated to int32.
func (bb *BlockBuilder) regs(rs []Reg) []int32 {
	out := bb.mb.b.slab.regs(len(rs))
	for i, r := range rs {
		bb.reg(r)
		out[i] = int32(r)
	}
	return out
}

// Dead returns a fresh unreachable block of the same method. Structured
// helpers (IfThen/IfElse/For/While) require their callbacks to return an
// unterminated block; a callback that ends in an explicit Ret uses Dead to
// hand back a placeholder for the helper's join wiring.
func (bb *BlockBuilder) Dead() *BlockBuilder { return bb.mb.NewBlock() }

// NewReg allocates a fresh register via the block's method; useful for
// variables assigned on both arms of a conditional.
func (bb *BlockBuilder) NewReg() Reg { return bb.mb.NewReg() }
