package ir

import (
	"fmt"
	"math"
	"strings"
)

// Disassemble renders a method body in a readable textual form, one block
// per paragraph:
//
//	P.fib(1) [static, 7 regs, 118 B]
//	b0:
//	  r1 = const.i 2
//	  r2 = cmp lt r0, r1
//	  if r2 -> b1 else b2
//	...
func Disassemble(m *Method) string {
	var sb strings.Builder
	kind := ""
	switch {
	case m.Clinit:
		kind = "clinit, "
	case m.Static:
		kind = "static, "
	}
	fmt.Fprintf(&sb, "%s [%s%d regs, %d B]\n", m.Signature(), kind, m.NumRegs, m.CodeSize())
	for _, b := range m.Blocks {
		fmt.Fprintf(&sb, "b%d:\n", b.Index)
		for i := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", FormatInstr(&b.Instrs[i]))
		}
		fmt.Fprintf(&sb, "  %s\n", formatTerm(b.Term))
	}
	return sb.String()
}

// FormatInstr renders one instruction.
func FormatInstr(in *Instr) string {
	dst := ""
	if in.HasDest() {
		dst = fmt.Sprintf("r%d = ", in.A)
	}
	switch in.Op {
	case OpConstInt:
		return fmt.Sprintf("%sconst.i %d", dst, in.Val)
	case OpConstFloat:
		return fmt.Sprintf("%sconst.f %g", dst, math.Float64frombits(uint64(in.Val)))
	case OpConstStr:
		return fmt.Sprintf("%sconst.s %q", dst, in.Sym)
	case OpConstNull:
		return dst + "const.null"
	case OpMove:
		return fmt.Sprintf("%smove r%d", dst, in.B)
	case OpArith, OpFArith:
		return fmt.Sprintf("%s%s %s r%d, r%d", dst, in.Op, arithName(ArithOp(in.Val)), in.B, in.C)
	case OpCmp:
		return fmt.Sprintf("%scmp %s r%d, r%d", dst, cmpName(CmpOp(in.Val)), in.B, in.C)
	case OpConvIF:
		return fmt.Sprintf("%sconv.if r%d", dst, in.B)
	case OpConvFI:
		return fmt.Sprintf("%sconv.fi r%d", dst, in.B)
	case OpNew:
		return fmt.Sprintf("%snew %s", dst, in.Type.FullyQualifiedName())
	case OpNewArray:
		return fmt.Sprintf("%snewarray %s[r%d]", dst, in.Type.FullyQualifiedName(), in.B)
	case OpArrayGet:
		return fmt.Sprintf("%saget r%d[r%d]", dst, in.B, in.C)
	case OpArraySet:
		return fmt.Sprintf("aset r%d[r%d] = r%d", in.A, in.B, in.C)
	case OpArrayLen:
		return fmt.Sprintf("%salen r%d", dst, in.B)
	case OpGetField:
		return fmt.Sprintf("%sgetfield r%d.%s.%s", dst, in.B, in.CName, in.Sym)
	case OpPutField:
		return fmt.Sprintf("putfield r%d.%s.%s = r%d", in.A, in.CName, in.Sym, in.B)
	case OpGetStatic:
		return fmt.Sprintf("%sgetstatic %s.%s", dst, in.CName, in.Sym)
	case OpPutStatic:
		return fmt.Sprintf("putstatic %s.%s = r%d", in.CName, in.Sym, in.A)
	case OpCall, OpCallVirt:
		return fmt.Sprintf("%s%s %s.%s(%s)", dst, in.Op, in.CName, in.Sym, regList(in.Args))
	case OpIntrinsic:
		extra := ""
		if in.Sym == IntrinsicSpawn {
			extra = " " + in.CName
		}
		return fmt.Sprintf("%sintrinsic %s%s(%s)", dst, in.Sym, extra, regList(in.Args))
	default:
		return fmt.Sprintf("%s%s ?", dst, in.Op)
	}
}

func formatTerm(t Term) string {
	switch t.Op {
	case TermGoto:
		return fmt.Sprintf("goto b%d", t.Then)
	case TermIf:
		return fmt.Sprintf("if r%d -> b%d else b%d", t.Cond, t.Then, t.Else)
	case TermReturn:
		if t.Ret == RegNone {
			return "ret"
		}
		return fmt.Sprintf("ret r%d", t.Ret)
	default:
		return "term ?"
	}
}

func arithName(op ArithOp) string {
	names := [...]string{Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
		And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr"}
	if int(op) < len(names) && names[op] != "" {
		return names[op]
	}
	return fmt.Sprintf("op(%d)", op)
}

func cmpName(op CmpOp) string {
	names := [...]string{Eq: "eq", Ne: "ne", Lt: "lt", Le: "le", Gt: "gt", Ge: "ge"}
	if int(op) < len(names) && names[op] != "" {
		return names[op]
	}
	return fmt.Sprintf("cmp(%d)", op)
}

func regList(rs []int32) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = fmt.Sprintf("r%d", r)
	}
	return strings.Join(parts, ", ")
}
