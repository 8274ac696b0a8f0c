package ir

import "fmt"

// Op enumerates instruction opcodes of the register machine.
type Op uint8

const (
	// OpConstInt writes the integer literal Val into register A.
	OpConstInt Op = iota
	// OpConstFloat writes the float literal (Val holds the IEEE bits) into A.
	OpConstFloat
	// OpConstStr writes a reference to the string literal Sym into A. At
	// image build time each distinct literal of a compiled method becomes a
	// heap-snapshot root whose inclusion reason is the embedding method
	// (Sec. 5.3: "constant pointer embedded in a method").
	OpConstStr
	// OpConstNull writes the null reference into A.
	OpConstNull
	// OpMove copies register B into register A.
	OpMove
	// OpArith computes A = B <ArithOp(Val)> C on integers.
	OpArith
	// OpFArith computes A = B <ArithOp(Val)> C on floats.
	OpFArith
	// OpCmp computes A = (B <CmpOp(Val)> C) as 0/1. Operands follow the
	// integer/float kind of the registers at runtime.
	OpCmp
	// OpConvIF converts the integer in B to a float in A.
	OpConvIF
	// OpConvFI truncates the float in B to an integer in A.
	OpConvFI
	// OpNew allocates an instance of class Sym into A.
	OpNew
	// OpNewArray allocates an array with element type Type and length taken
	// from register B into A.
	OpNewArray
	// OpArrayGet loads A = B[C].
	OpArrayGet
	// OpArraySet stores A[B] = C.
	OpArraySet
	// OpArrayLen loads the length of array B into A.
	OpArrayLen
	// OpGetField loads A = B.<field Sym of class CName>.
	OpGetField
	// OpPutField stores A.<field Sym of class CName> = B.
	OpPutField
	// OpGetStatic loads A = <static field Sym of class CName>.
	OpGetStatic
	// OpPutStatic stores <static field Sym of class CName> = A.
	OpPutStatic
	// OpCall invokes the statically bound method Sym of class CName with
	// Args and stores the result (if any) into A. For instance methods the
	// receiver is Args[0].
	OpCall
	// OpCallVirt invokes method Sym with dynamic dispatch on the class of
	// the receiver Args[0] and stores the result (if any) into A.
	OpCallVirt
	// OpIntrinsic invokes the built-in operation Sym with Args and stores
	// the result (if any) into A. See the Intrinsic* constants.
	OpIntrinsic
)

// NumOps is the number of opcodes; valid Op values are [0, NumOps).
const NumOps = int(OpIntrinsic) + 1

var opNames = [...]string{
	OpConstInt: "const.i", OpConstFloat: "const.f", OpConstStr: "const.s",
	OpConstNull: "const.null", OpMove: "move", OpArith: "arith",
	OpFArith: "farith", OpCmp: "cmp", OpConvIF: "conv.if", OpConvFI: "conv.fi",
	OpNew: "new", OpNewArray: "newarray", OpArrayGet: "aget",
	OpArraySet: "aset", OpArrayLen: "alen", OpGetField: "getfield",
	OpPutField: "putfield", OpGetStatic: "getstatic", OpPutStatic: "putstatic",
	OpCall: "call", OpCallVirt: "callvirt", OpIntrinsic: "intrinsic",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ArithOp enumerates arithmetic operators for OpArith/OpFArith (stored in
// Instr.Val).
type ArithOp int64

const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	Rem
	And
	Or
	Xor
	Shl
	Shr
)

// CmpOp enumerates comparison operators for OpCmp (stored in Instr.Val).
type CmpOp int64

const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// Intrinsic names understood by the interpreter (Instr.Sym of OpIntrinsic).
// Their argument counts and destinations are in the IntrinsicID table,
// which Resolve enforces.
const (
	// IntrinsicPrint consumes one argument; models console output cost.
	IntrinsicPrint = "print"
	// IntrinsicArg returns the program argument with index Args[0].
	IntrinsicArg = "arg"
	// IntrinsicRespond marks the first external response of a microservice
	// workload; the harness measures elapsed time until it executes
	// (Sec. 7.1) and then delivers SIGKILL.
	IntrinsicRespond = "respond"
	// IntrinsicSpawn starts a new thread executing the static method named
	// by Instr.CName (in "Class.method" form). Args, if present, pass one
	// integer to the thread entry. Threads are scheduled deterministically
	// by the interpreter.
	IntrinsicSpawn = "spawn"
	// IntrinsicYield hints the deterministic scheduler to switch threads.
	IntrinsicYield = "yield"
	// IntrinsicBuildSalt returns a value that differs between image builds
	// (it models timestamps, identity hash codes, and random seeds captured
	// by class initializers, one of the heap-divergence sources of Sec. 2).
	IntrinsicBuildSalt = "buildsalt"
	// IntrinsicIntern interns the string in Args[0]; at build time the
	// result becomes an InternedString heap root (Sec. 5.3).
	IntrinsicIntern = "intern"
	// IntrinsicConcat returns the concatenation of two strings.
	IntrinsicConcat = "concat"
	// IntrinsicStrLen returns the length of the string in Args[0].
	IntrinsicStrLen = "strlen"
	// IntrinsicStrHash returns a deterministic content hash of a string.
	IntrinsicStrHash = "strhash"
	// IntrinsicItoa converts the integer in Args[0] to a string.
	IntrinsicItoa = "itoa"
	// IntrinsicStrChar returns the byte of string Args[0] at index Args[1].
	IntrinsicStrChar = "strchar"
	// IntrinsicStrEq returns 1 when the strings in Args[0] and Args[1] have
	// equal contents.
	IntrinsicStrEq = "streq"
	// IntrinsicAbsF returns the absolute value of the float in Args[0].
	IntrinsicAbsF = "absf"
	// IntrinsicSqrt returns the square root of the float in Args[0].
	IntrinsicSqrt = "sqrt"
	// IntrinsicCos / IntrinsicSin are trigonometric helpers for AWFY.
	IntrinsicCos = "cos"
	IntrinsicSin = "sin"
)

// IntrinsicID is the dense code of a known intrinsic. The zero value marks
// a name the interpreter does not know: such an intrinsic resolves, and
// traps when it executes.
type IntrinsicID uint8

// Known intrinsics, in table order.
const (
	IntrUnknown IntrinsicID = iota
	IntrPrint
	IntrArg
	IntrRespond
	IntrSpawn
	IntrYield
	IntrBuildSalt
	IntrIntern
	IntrConcat
	IntrStrLen
	IntrStrHash
	IntrItoa
	IntrStrChar
	IntrStrEq
	IntrAbsF
	IntrSqrt
	IntrCos
	IntrSin
	numIntrinsics
)

// intrinsics is the operand shape of every known intrinsic, indexed by ID:
// its name, its argument count (-1 accepts any), and whether it writes
// register A.
var intrinsics = [numIntrinsics]struct {
	name  string
	arity int
	dest  bool
}{
	IntrPrint:     {IntrinsicPrint, 1, false},
	IntrArg:       {IntrinsicArg, 1, true},
	IntrRespond:   {IntrinsicRespond, 0, false},
	IntrSpawn:     {IntrinsicSpawn, -1, false},
	IntrYield:     {IntrinsicYield, 0, false},
	IntrBuildSalt: {IntrinsicBuildSalt, 0, true},
	IntrIntern:    {IntrinsicIntern, 1, true},
	IntrConcat:    {IntrinsicConcat, 2, true},
	IntrStrLen:    {IntrinsicStrLen, 1, true},
	IntrStrHash:   {IntrinsicStrHash, 1, true},
	IntrItoa:      {IntrinsicItoa, 1, true},
	IntrStrChar:   {IntrinsicStrChar, 2, true},
	IntrStrEq:     {IntrinsicStrEq, 2, true},
	IntrAbsF:      {IntrinsicAbsF, 1, true},
	IntrSqrt:      {IntrinsicSqrt, 1, true},
	IntrCos:       {IntrinsicCos, 1, true},
	IntrSin:       {IntrinsicSin, 1, true},
}

var intrinsicByName = func() map[string]IntrinsicID {
	ids := make(map[string]IntrinsicID, numIntrinsics)
	for id := IntrPrint; id < numIntrinsics; id++ {
		ids[intrinsics[id].name] = id
	}
	return ids
}()

// LookupIntrinsic returns the ID of the named intrinsic, or IntrUnknown.
func LookupIntrinsic(name string) IntrinsicID { return intrinsicByName[name] }

// Name returns the intrinsic's name ("" for IntrUnknown).
func (id IntrinsicID) Name() string { return intrinsics[id].name }

// Arity returns the intrinsic's argument count, or -1 when it accepts any
// count (spawn, and an unknown intrinsic).
func (id IntrinsicID) Arity() int {
	if id == IntrUnknown {
		return -1
	}
	return intrinsics[id].arity
}

// HasDest reports whether the intrinsic writes register A. An unknown
// intrinsic is assumed to, so its destination is still validated.
func (id IntrinsicID) HasDest() bool { return id == IntrUnknown || intrinsics[id].dest }

// Instr is a single three-address instruction, 24 bytes: the opcode and
// its three registers share one word. The meaning of the fields depends on
// Op; unused fields are zero. A register field holds a register index
// below MaxRegs, or RegNone for NoReg.
type Instr struct {
	Op Op
	// A is the destination register for producing instructions, or the
	// object/array register for OpArraySet/OpPutField/OpPutStatic.
	A uint16
	// B and C are source registers.
	B, C uint16
	// Val is the integer literal, float bits, or operator code.
	Val int64
	// Operand holds the operands only some opcodes use (see
	// Op.HasOperand); it is nil on the others. Its fields are promoted,
	// so in.Sym reads in.Operand.Sym.
	*Operand
}

// Operand is the side record of an instruction whose opcode names a
// symbol, a type or argument registers. About one instruction in twenty
// has one, so keeping these fields out of Instr keeps the instruction
// arrays, which every program holds resident, small.
type Operand struct {
	// Sym is the string literal, field name, method name, or intrinsic name.
	Sym string
	// CName is the class name qualifying Sym for field/method instructions.
	CName string
	// Type is the allocated type for OpNew (KRef) / OpNewArray (element),
	// nil on the other opcodes (see Op.HasType). Instructions of one
	// program share each distinct type.
	Type *TypeRef
	// Args are the argument registers of calls and intrinsics.
	Args []int32

	// Resolved links, populated by Program.Resolve.

	// Field is the resolved field for field instructions.
	Field *Field
	// Method is the resolved statically bound target for OpCall, or the
	// resolution root for OpCallVirt.
	Method *Method
	// Class is the resolved class for OpNew.
	Class *Class
}

// HasOperand reports whether instructions with opcode o carry an Operand:
// a string constant, an allocation, a field or static access, a call or
// an intrinsic.
func (o Op) HasOperand() bool {
	switch o {
	case OpConstStr, OpNew, OpNewArray, OpGetField, OpPutField,
		OpGetStatic, OpPutStatic, OpCall, OpCallVirt, OpIntrinsic:
		return true
	}
	return false
}

// HasType reports whether instructions with opcode o allocate, and so
// carry a Type in their Operand.
func (o Op) HasType() bool { return o == OpNew || o == OpNewArray }

// typeOf returns the type o encodes: its Type, or the zero type when it
// has none.
func (o *Operand) typeOf() TypeRef {
	if o.Type == nil {
		return TypeRef{}
	}
	return *o.Type
}

// encodesEmpty reports whether o encodes as no Operand does: no symbol,
// class name, type or argument.
func (o *Operand) encodesEmpty() bool {
	return o.Sym == "" && o.CName == "" && o.typeOf() == (TypeRef{}) && len(o.Args) == 0
}

// operandChunk, argChunk, blockChunk and typeChunk are the capacities of
// the slab chunks that Operands, argument registers, Blocks and interned
// TypeRefs are carved from.
const (
	operandChunk = 256
	argChunk     = 1024
	blockChunk   = 256
	typeChunk    = 64
)

// codeSlab carves Operands, argument-register slices and Blocks out of
// chunked backing arrays, so a program's code costs a few allocations
// rather than one per operand or block. The program keeps every chunk it
// draws from. It also interns the types of allocating instructions, so
// that those of one type share one TypeRef.
type codeSlab struct {
	operands []Operand
	args     []int32
	blocks   []Block
	types    []TypeRef
	interned map[TypeRef]*TypeRef
}

// carve returns a pointer to the next zero element of the chunk *s,
// starting a new chunk of n elements when it is full.
func carve[T any](s *[]T, n int) *T {
	if len(*s) == cap(*s) {
		*s = make([]T, 0, n)
	}
	*s = (*s)[:len(*s)+1]
	return &(*s)[len(*s)-1]
}

// operand returns a pointer to a slab copy of o.
func (s *codeSlab) operand(o Operand) *Operand {
	p := carve(&s.operands, operandChunk)
	*p = o
	return p
}

// block returns a new empty block with the given index, which the caller
// has bounded by math.MaxInt32.
func (s *codeSlab) block(index int) *Block {
	b := carve(&s.blocks, blockChunk)
	b.Index = int32(index)
	return b
}

// typeRef returns the interned copy of t. An array type's element type is
// interned first, so structurally equal types map to one key.
func (s *codeSlab) typeRef(t TypeRef) *TypeRef {
	if t.Kind == KArray && t.Elem != nil {
		t.Elem = s.typeRef(*t.Elem)
	}
	if p, ok := s.interned[t]; ok {
		return p
	}
	if s.interned == nil {
		s.interned = make(map[TypeRef]*TypeRef)
	}
	p := carve(&s.types, typeChunk)
	*p = t
	s.interned[t] = p
	return p
}

// regs returns n zeroed argument registers for the caller to fill, as a
// capped slice of the slab, so appending to it never writes into the slab.
func (s *codeSlab) regs(n int) []int32 {
	if len(s.args)+n > cap(s.args) {
		s.args = make([]int32, 0, max(argChunk, n))
	}
	start := len(s.args)
	s.args = s.args[:start+n]
	return s.args[start : start+n : start+n]
}

// HasDest reports whether the instruction writes register A.
func (in *Instr) HasDest() bool {
	switch in.Op {
	case OpArraySet, OpPutField, OpPutStatic:
		return false
	case OpIntrinsic:
		return LookupIntrinsic(in.Sym).HasDest()
	case OpCall, OpCallVirt:
		return in.A != RegNone
	}
	return true
}

// CodeSize returns the estimated machine-code size in bytes that this
// instruction contributes to its method. The inliner (internal/graal) is
// size-driven, so these estimates — not the real x86 encoding — determine
// compilation-unit formation, exactly as Graal's node-cost estimates do.
func (in *Instr) CodeSize() int {
	switch in.Op {
	case OpConstInt, OpConstFloat:
		return 10
	case OpConstStr, OpConstNull:
		return 8
	case OpMove:
		return 3
	case OpArith, OpFArith, OpCmp:
		return 4
	case OpConvIF, OpConvFI:
		return 4
	case OpNew:
		return 24 // allocation fast path
	case OpNewArray:
		return 28
	case OpArrayGet, OpArraySet:
		return 9 // bounds check + access
	case OpArrayLen:
		return 4
	case OpGetField, OpPutField:
		return 7
	case OpGetStatic, OpPutStatic:
		return 8
	case OpCall:
		return 12 + 2*len(in.Args)
	case OpCallVirt:
		return 18 + 2*len(in.Args) // vtable load + indirect call
	case OpIntrinsic:
		return 14
	default:
		return 8
	}
}

// TermOp enumerates block terminators.
type TermOp uint8

const (
	// TermGoto jumps unconditionally to Then.
	TermGoto TermOp = iota
	// TermIf jumps to Then when register Cond is nonzero, else to Else.
	TermIf
	// TermReturn leaves the method, returning register Ret (or none if
	// Ret < 0).
	TermReturn
)

// Term is the terminator of a basic block, 16 bytes. Its registers are
// narrowed as Instr's are.
type Term struct {
	Op   TermOp
	Cond uint16 // register for TermIf
	Ret  uint16 // return value register for TermReturn; RegNone for void
	Then int32  // target block index
	Else int32  // target block index for TermIf
}

// CodeSize returns the estimated machine-code size of the terminator.
func (t Term) CodeSize() int {
	switch t.Op {
	case TermGoto:
		return 5
	case TermIf:
		return 8
	case TermReturn:
		return 6
	default:
		return 5
	}
}

// Block is a basic block: a straight-line instruction sequence ending in a
// terminator, 48 bytes. Blocks are identified by their index within the
// method.
type Block struct {
	Index  int32
	Instrs []Instr
	Term   Term
}
