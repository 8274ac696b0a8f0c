package ir

import (
	"fmt"
	"sort"
)

// Resource models an embedded resource file; at image build time each
// resource becomes a byte-array heap object whose inclusion reason is
// "Resource" (Sec. 5.3).
type Resource struct {
	Name string
	Size int
}

// Program is a complete closed-world program: the application together with
// everything on its classpath. The image builder compiles all reachable
// methods from it (Sec. 2: the analysis is conservative and includes more
// code than is executed).
type Program struct {
	Name string
	// Classes in declaration (classpath) order.
	Classes []*Class
	// EntryClass/EntryMethod name the static main method.
	EntryClass  string
	EntryMethod string
	// Resources are embedded resource files.
	Resources []Resource

	byName   map[string]*Class
	resolved bool
	// selectors names the virtual selectors: selectors[s-1] is the method
	// name of selector s.
	selectors []string
}

// Class returns the class with the given fully qualified name, or nil.
func (p *Program) Class(name string) *Class { return p.byName[name] }

// Entry returns the resolved entry method.
func (p *Program) Entry() *Method {
	c := p.Class(p.EntryClass)
	if c == nil {
		return nil
	}
	return c.DeclaredMethod(p.EntryMethod)
}

// Resolved reports whether Resolve succeeded on this program.
func (p *Program) Resolved() bool { return p.resolved }

// Resolve links all symbolic references, computes field layouts and stable
// type IDs, and validates every method body. It must be called once after
// construction and before the program is compiled or executed.
func (p *Program) Resolve() error {
	if p.resolved {
		return nil
	}
	p.byName = make(map[string]*Class, len(p.Classes))
	for _, c := range p.Classes {
		if c.Name == "" {
			return fmt.Errorf("ir: program %s: class with empty name", p.Name)
		}
		if _, dup := p.byName[c.Name]; dup {
			return fmt.Errorf("ir: program %s: duplicate class %s", p.Name, c.Name)
		}
		p.byName[c.Name] = c
		c.isString = c.Name == StringClass
	}
	for _, c := range p.Classes {
		if err := c.resolveInto(p); err != nil {
			return err
		}
	}
	// Detect inheritance cycles before laying out fields.
	for _, c := range p.Classes {
		slow, fast := c, c
		for fast != nil && fast.Super != nil {
			slow, fast = slow.Super, fast.Super.Super
			if slow == fast {
				return fmt.Errorf("ir: inheritance cycle through %s", c.Name)
			}
		}
	}
	for _, c := range p.Classes {
		c.layoutFields()
	}
	// Stable type IDs: sorted fully qualified names (Sec. 5.1 — types are
	// identified by name across compilations). ID 0 is reserved for null.
	names := make([]string, 0, len(p.Classes))
	for _, c := range p.Classes {
		names = append(names, c.Name)
	}
	sort.Strings(names)
	for i, n := range names {
		p.byName[n].ID = i + 1
	}
	for _, c := range p.Classes {
		for _, m := range c.Methods {
			if err := p.resolveMethod(m); err != nil {
				return err
			}
		}
	}
	p.numberMethods()
	if p.EntryClass != "" {
		e := p.Entry()
		if e == nil {
			return fmt.Errorf("ir: program %s: entry %s.%s not found", p.Name, p.EntryClass, p.EntryMethod)
		}
		if !e.Static {
			return fmt.Errorf("ir: program %s: entry %s is not static", p.Name, e.Signature())
		}
	}
	p.resolved = true
	return nil
}

func (p *Program) resolveMethod(m *Method) error {
	where := func() string { return "ir: method " + m.Signature() }
	if len(m.Blocks) == 0 {
		return fmt.Errorf("%s: no blocks", where())
	}
	if m.NumRegs > MaxRegs {
		return fmt.Errorf("%s: NumRegs %d > %d", where(), m.NumRegs, MaxRegs)
	}
	if m.NParams > m.NumRegs {
		return fmt.Errorf("%s: NParams %d > NumRegs %d", where(), m.NParams, m.NumRegs)
	}
	checkReg := func(r int) error {
		if r < 0 || r >= m.NumRegs {
			return fmt.Errorf("%s: register %d out of range [0,%d)", where(), r, m.NumRegs)
		}
		return nil
	}
	checkBlock := func(b int32) error {
		if b < 0 || int(b) >= len(m.Blocks) {
			return fmt.Errorf("%s: block target %d out of range [0,%d)", where(), b, len(m.Blocks))
		}
		return nil
	}
	for bi, b := range m.Blocks {
		if int(b.Index) != bi {
			return fmt.Errorf("%s: block %d has index %d", where(), bi, b.Index)
		}
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			if err := p.resolveInstr(m, in, checkReg); err != nil {
				return fmt.Errorf("%s: block %d instr %d (%s): %w", where(), bi, ii, in.Op, err)
			}
		}
		switch b.Term.Op {
		case TermGoto:
			if err := checkBlock(b.Term.Then); err != nil {
				return err
			}
		case TermIf:
			if err := checkReg(int(wideReg(b.Term.Cond))); err != nil {
				return err
			}
			if err := checkBlock(b.Term.Then); err != nil {
				return err
			}
			if err := checkBlock(b.Term.Else); err != nil {
				return err
			}
		case TermReturn:
			if b.Term.Ret != RegNone {
				if err := checkReg(int(b.Term.Ret)); err != nil {
					return err
				}
				if m.Returns.Kind == KVoid {
					return fmt.Errorf("%s: block %d returns a value from a void method", where(), bi)
				}
			}
		default:
			return fmt.Errorf("%s: block %d: invalid terminator %d", where(), bi, b.Term.Op)
		}
	}
	return nil
}

func (p *Program) resolveInstr(m *Method, in *Instr, checkReg func(int) error) error {
	regs := func(rs ...uint16) error {
		for _, r := range rs {
			if err := checkReg(int(wideReg(r))); err != nil {
				return err
			}
		}
		return nil
	}
	args := func() error {
		for _, r := range in.Args {
			if err := checkReg(int(r)); err != nil {
				return err
			}
		}
		return nil
	}
	if in.Op.HasOperand() && in.Operand == nil {
		return fmt.Errorf("no operand")
	}
	switch in.Op {
	case OpConstInt, OpConstFloat, OpConstStr, OpConstNull:
		return regs(in.A)
	case OpMove, OpConvIF, OpConvFI, OpArrayLen:
		return regs(in.A, in.B)
	case OpArith, OpFArith, OpCmp, OpArrayGet, OpArraySet:
		return regs(in.A, in.B, in.C)
	case OpNew:
		if err := regs(in.A); err != nil {
			return err
		}
		if in.Type == nil {
			return fmt.Errorf("no type")
		}
		c := p.Class(in.Type.Name)
		if in.Type.Kind != KRef || c == nil {
			return fmt.Errorf("unknown class %q", in.Type.Name)
		}
		in.Class = c
		return nil
	case OpNewArray:
		if err := regs(in.A, in.B); err != nil {
			return err
		}
		if in.Type == nil {
			return fmt.Errorf("no type")
		}
		if err := in.Type.validate(); err != nil {
			return err
		}
		if in.Type.Kind == KRef && in.Type.Name != StringClass && p.Class(in.Type.Name) == nil {
			return fmt.Errorf("unknown element class %q", in.Type.Name)
		}
		return nil
	case OpGetField, OpPutField:
		if err := regs(in.A, in.B); err != nil {
			return err
		}
		c := p.Class(in.CName)
		if c == nil {
			return fmt.Errorf("unknown class %q", in.CName)
		}
		f := c.LookupField(in.Sym)
		if f == nil {
			return fmt.Errorf("unknown field %s.%s", in.CName, in.Sym)
		}
		in.Field = f
		return nil
	case OpGetStatic, OpPutStatic:
		if err := regs(in.A); err != nil {
			return err
		}
		c := p.Class(in.CName)
		if c == nil {
			return fmt.Errorf("unknown class %q", in.CName)
		}
		f := c.LookupStatic(in.Sym)
		if f == nil {
			return fmt.Errorf("unknown static field %s.%s", in.CName, in.Sym)
		}
		in.Field = f
		return nil
	case OpCall, OpCallVirt:
		if in.A != RegNone {
			if err := regs(in.A); err != nil {
				return err
			}
		}
		if err := args(); err != nil {
			return err
		}
		c := p.Class(in.CName)
		if c == nil {
			return fmt.Errorf("unknown class %q", in.CName)
		}
		t := c.LookupMethod(in.Sym)
		if t == nil {
			return fmt.Errorf("unknown method %s.%s", in.CName, in.Sym)
		}
		if len(in.Args) != t.NParams {
			return fmt.Errorf("call to %s with %d args, want %d", t.Signature(), len(in.Args), t.NParams)
		}
		if in.Op == OpCallVirt && t.Static {
			return fmt.Errorf("virtual call to static method %s", t.Signature())
		}
		in.Method = t
		return nil
	case OpIntrinsic:
		if in.Sym == "" {
			return fmt.Errorf("intrinsic with empty name")
		}
		if n := LookupIntrinsic(in.Sym).Arity(); n >= 0 && len(in.Args) != n {
			return fmt.Errorf("intrinsic %s with %d args, want %d", in.Sym, len(in.Args), n)
		}
		if in.HasDest() {
			if err := regs(in.A); err != nil {
				return err
			}
		}
		return args()
	default:
		return fmt.Errorf("invalid opcode %d", in.Op)
	}
}

// numberMethods gives every method its dense ID, numbers the virtual
// selectors — every method name some callvirt names, in first-use order
// over the declaration order — and fills each class's dispatch table.
func (p *Program) numberMethods() {
	sel := make(map[string]int)
	id := 0
	for _, c := range p.Classes {
		for _, m := range c.Methods {
			id++
			m.ID = id
			for _, b := range m.Blocks {
				for i := range b.Instrs {
					in := &b.Instrs[i]
					if in.Op == OpCallVirt && sel[in.Sym] == 0 {
						p.selectors = append(p.selectors, in.Sym)
						sel[in.Sym] = len(p.selectors)
					}
				}
			}
		}
	}
	n := len(p.selectors) + 1
	tables := make([]*Method, len(p.Classes)*n)
	for i, c := range p.Classes {
		c.dispatch = tables[i*n : (i+1)*n : (i+1)*n]
		for s, name := range p.selectors {
			c.dispatch[s+1] = c.LookupMethod(name)
		}
		for _, m := range c.Methods {
			m.Selector = sel[m.Name]
		}
	}
}

// Selectors returns the names of the virtual selectors: selector s (from
// 1) names Selectors()[s-1].
func (p *Program) Selectors() []string { return p.selectors }

// Methods returns every method of every class, in declaration order.
func (p *Program) Methods() []*Method {
	var out []*Method
	for _, c := range p.Classes {
		out = append(out, c.Methods...)
	}
	return out
}

// NumMethods returns the total method count.
func (p *Program) NumMethods() int {
	n := 0
	for _, c := range p.Classes {
		n += len(c.Methods)
	}
	return n
}
