package ir

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary program container: "NPRG" magic, version, a deduplicating string
// table, then the structural encoding of classes, fields, methods, blocks,
// and instructions. Decoding reconstructs the program and resolves it, so a
// decoded program is immediately buildable.
const (
	progMagic   = "NPRG"
	progVersion = 1
)

// encoder writes varint-based records with a string table.
type encoder struct {
	w       *bufio.Writer
	strings map[string]uint64
	order   []string
	err     error
}

func (e *encoder) u(v uint64) {
	if e.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, e.err = e.w.Write(buf[:n])
}

func (e *encoder) i(v int64) {
	// ZigZag signed encoding.
	e.u(uint64(v<<1) ^ uint64(v>>63))
}

func (e *encoder) s(s string) {
	idx, ok := e.strings[s]
	if !ok {
		idx = uint64(len(e.order))
		e.strings[s] = idx
		e.order = append(e.order, s)
	}
	e.u(idx)
}

// collectStrings walks the program once so the string table can be written
// before the structure (the table is needed first when decoding).
func (e *encoder) collect(s string) {
	if _, ok := e.strings[s]; !ok {
		e.strings[s] = uint64(len(e.order))
		e.order = append(e.order, s)
	}
}

func (e *encoder) typeRef(t TypeRef) {
	e.u(uint64(t.Kind))
	switch t.Kind {
	case KRef:
		e.s(t.Name)
	case KArray:
		e.typeRef(*t.Elem)
	}
}

func collectType(e *encoder, t TypeRef) {
	switch t.Kind {
	case KRef:
		e.collect(t.Name)
	case KArray:
		collectType(e, *t.Elem)
	}
}

// noOperand is what an instruction without an Operand encodes: an empty
// symbol and class name, the zero type and no arguments.
var noOperand Operand

// encodedOperand returns the operand fields that in encodes.
func encodedOperand(in *Instr) *Operand {
	if in.Operand == nil {
		return &noOperand
	}
	return in.Operand
}

// EncodeProgram serializes the program to w.
func EncodeProgram(w io.Writer, p *Program) error {
	e := &encoder{w: bufio.NewWriter(w), strings: make(map[string]uint64)}

	// Pass 1: populate the string table deterministically.
	e.collect(p.Name)
	e.collect(p.EntryClass)
	e.collect(p.EntryMethod)
	for _, r := range p.Resources {
		e.collect(r.Name)
	}
	for _, c := range p.Classes {
		e.collect(c.Name)
		e.collect(c.SuperName)
		for _, f := range append(append([]*Field{}, c.Fields...), c.Statics...) {
			e.collect(f.Name)
			collectType(e, f.Type)
		}
		for _, m := range c.Methods {
			e.collect(m.Name)
			collectType(e, m.Returns)
			for _, b := range m.Blocks {
				for i := range b.Instrs {
					o := encodedOperand(&b.Instrs[i])
					e.collect(o.Sym)
					e.collect(o.CName)
					collectType(e, o.typeOf())
				}
			}
		}
	}

	// Header + string table.
	if _, err := e.w.WriteString(progMagic); err != nil {
		return err
	}
	e.u(progVersion)
	e.u(uint64(len(e.order)))
	for _, s := range e.order {
		e.u(uint64(len(s)))
		if e.err == nil {
			_, e.err = e.w.WriteString(s)
		}
	}

	// Structure.
	e.s(p.Name)
	e.s(p.EntryClass)
	e.s(p.EntryMethod)
	e.u(uint64(len(p.Resources)))
	for _, r := range p.Resources {
		e.s(r.Name)
		e.u(uint64(r.Size))
	}
	e.u(uint64(len(p.Classes)))
	for _, c := range p.Classes {
		e.s(c.Name)
		e.s(c.SuperName)
		encodeFields := func(fs []*Field) {
			e.u(uint64(len(fs)))
			for _, f := range fs {
				e.s(f.Name)
				e.typeRef(f.Type)
			}
		}
		encodeFields(c.Fields)
		encodeFields(c.Statics)
		e.u(uint64(len(c.Methods)))
		for _, m := range c.Methods {
			e.s(m.Name)
			flags := uint64(0)
			if m.Static {
				flags |= 1
			}
			if m.Clinit {
				flags |= 2
			}
			e.u(flags)
			e.u(uint64(m.NParams))
			e.typeRef(m.Returns)
			e.u(uint64(m.NumRegs))
			e.u(uint64(len(m.Blocks)))
			for _, b := range m.Blocks {
				e.u(uint64(len(b.Instrs)))
				for i := range b.Instrs {
					in := &b.Instrs[i]
					e.u(uint64(in.Op))
					e.i(int64(wideReg(in.A)))
					e.i(int64(wideReg(in.B)))
					e.i(int64(wideReg(in.C)))
					e.i(in.Val)
					o := encodedOperand(in)
					e.s(o.Sym)
					e.s(o.CName)
					e.typeRef(o.typeOf())
					e.u(uint64(len(o.Args)))
					for _, a := range o.Args {
						e.i(int64(a))
					}
				}
				e.u(uint64(b.Term.Op))
				e.i(int64(wideReg(b.Term.Cond)))
				e.i(int64(b.Term.Then))
				e.i(int64(b.Term.Else))
				e.i(int64(wideReg(b.Term.Ret)))
			}
		}
	}
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// decoder reads the format written by EncodeProgram.
type decoder struct {
	r     *bufio.Reader
	table []string
	// slab holds the decoded Operands and Blocks, and args is scratch for
	// the argument registers of one instruction.
	slab codeSlab
	args []int32
}

func (d *decoder) u() (uint64, error) { return binary.ReadUvarint(d.r) }

func (d *decoder) i() (int64, error) {
	v, err := d.u()
	if err != nil {
		return 0, err
	}
	return int64(v>>1) ^ -int64(v&1), nil
}

func (d *decoder) s() (string, error) {
	idx, err := d.u()
	if err != nil {
		return "", err
	}
	if idx >= uint64(len(d.table)) {
		return "", fmt.Errorf("ir: string index %d out of table range %d", idx, len(d.table))
	}
	return d.table[idx], nil
}

// reg reads a register field of an instruction or terminator. A value
// outside [NoReg, MaxRegs) is corrupt: it is rejected rather than
// truncated, which could wrap it into a valid register.
func (d *decoder) reg() (uint16, error) {
	v, err := d.i()
	if err != nil {
		return 0, err
	}
	r, ok := narrowReg(v)
	if !ok {
		return 0, fmt.Errorf("ir: register %d outside [%d, %d)", v, NoReg, MaxRegs)
	}
	return r, nil
}

// i32 reads an argument register or a block target. A value outside
// int32 is rejected, as reg rejects one outside 16 bits; Resolve bounds
// the rest.
func (d *decoder) i32(what string) (int32, error) {
	v, err := d.i()
	if err != nil {
		return 0, err
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, fmt.Errorf("ir: %s %d outside the int32 range", what, v)
	}
	return int32(v), nil
}

// maxTypeDepth bounds array-type nesting; deeper encodings are corrupt
// (the builder API cannot produce them) and would otherwise recurse
// without limit.
const maxTypeDepth = 64

func (d *decoder) typeRef() (TypeRef, error) { return d.typeRefDepth(0) }

func (d *decoder) typeRefDepth(depth int) (TypeRef, error) {
	if depth > maxTypeDepth {
		return TypeRef{}, fmt.Errorf("ir: type nesting exceeds %d", maxTypeDepth)
	}
	k, err := d.u()
	if err != nil {
		return TypeRef{}, err
	}
	t := TypeRef{Kind: TypeKind(k)}
	switch t.Kind {
	case KRef:
		if t.Name, err = d.s(); err != nil {
			return t, err
		}
	case KArray:
		elem, err := d.typeRefDepth(depth + 1)
		if err != nil {
			return t, err
		}
		t.Elem = &elem
	case KInt, KFloat, KVoid:
	default:
		return t, fmt.Errorf("ir: invalid encoded type kind %d", k)
	}
	return t, nil
}

// maxCount bounds decoded collection sizes against corrupted input.
const maxCount = 1 << 22

func (d *decoder) count(what string) (int, error) {
	v, err := d.u()
	if err != nil {
		return 0, err
	}
	if v > maxCount {
		return 0, fmt.Errorf("ir: implausible %s count %d", what, v)
	}
	return int(v), nil
}

// prealloc bounds a declared count to a sane preallocation size: declared
// counts are validated but never trusted for allocation, since a few bytes
// of input can declare maxCount elements. Slices grow with the elements
// actually decoded.
func prealloc(declared, limit int) int {
	if declared > limit {
		return limit
	}
	return declared
}

// DecodeProgram deserializes and resolves a program from r.
func DecodeProgram(r io.Reader) (*Program, error) {
	d := &decoder{r: bufio.NewReader(r)}
	head := make([]byte, len(progMagic))
	if _, err := io.ReadFull(d.r, head); err != nil {
		return nil, fmt.Errorf("ir: reading program header: %w", err)
	}
	if string(head) != progMagic {
		return nil, fmt.Errorf("ir: bad program magic %q", head)
	}
	ver, err := d.u()
	if err != nil {
		return nil, err
	}
	if ver != progVersion {
		return nil, fmt.Errorf("ir: unsupported program version %d", ver)
	}
	nstr, err := d.count("string-table")
	if err != nil {
		return nil, err
	}
	d.table = make([]string, 0, prealloc(nstr, 4096))
	for i := 0; i < nstr; i++ {
		n, err := d.count("string")
		if err != nil {
			return nil, err
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(d.r, buf); err != nil {
			return nil, err
		}
		d.table = append(d.table, string(buf))
	}

	p := &Program{}
	if p.Name, err = d.s(); err != nil {
		return nil, err
	}
	if p.EntryClass, err = d.s(); err != nil {
		return nil, err
	}
	if p.EntryMethod, err = d.s(); err != nil {
		return nil, err
	}
	nres, err := d.count("resource")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nres; i++ {
		var r Resource
		if r.Name, err = d.s(); err != nil {
			return nil, err
		}
		sz, err := d.u()
		if err != nil {
			return nil, err
		}
		if sz > 1<<30 {
			return nil, fmt.Errorf("ir: implausible resource size %d", sz)
		}
		r.Size = int(sz)
		p.Resources = append(p.Resources, r)
	}
	ncls, err := d.count("class")
	if err != nil {
		return nil, err
	}
	for ci := 0; ci < ncls; ci++ {
		c := &Class{}
		if c.Name, err = d.s(); err != nil {
			return nil, err
		}
		if c.SuperName, err = d.s(); err != nil {
			return nil, err
		}
		decodeFields := func(static bool) ([]*Field, error) {
			n, err := d.count("field")
			if err != nil {
				return nil, err
			}
			out := make([]*Field, 0, n)
			for i := 0; i < n; i++ {
				f := &Field{Static: static}
				if f.Name, err = d.s(); err != nil {
					return nil, err
				}
				if f.Type, err = d.typeRef(); err != nil {
					return nil, err
				}
				out = append(out, f)
			}
			return out, nil
		}
		if c.Fields, err = decodeFields(false); err != nil {
			return nil, err
		}
		if c.Statics, err = decodeFields(true); err != nil {
			return nil, err
		}
		nm, err := d.count("method")
		if err != nil {
			return nil, err
		}
		for mi := 0; mi < nm; mi++ {
			m := &Method{}
			if m.Name, err = d.s(); err != nil {
				return nil, err
			}
			flags, err := d.u()
			if err != nil {
				return nil, err
			}
			m.Static = flags&1 != 0
			m.Clinit = flags&2 != 0
			np, err := d.u()
			if err != nil {
				return nil, err
			}
			if np > math.MaxInt32 {
				return nil, fmt.Errorf("ir: implausible parameter count %d", np)
			}
			m.NParams = int(np)
			if m.Returns, err = d.typeRef(); err != nil {
				return nil, err
			}
			nr, err := d.u()
			if err != nil {
				return nil, err
			}
			if nr > math.MaxInt32 {
				return nil, fmt.Errorf("ir: implausible register count %d", nr)
			}
			m.NumRegs = int(nr)
			nb, err := d.count("block")
			if err != nil {
				return nil, err
			}
			m.Blocks = make([]*Block, 0, prealloc(nb, 1024))
			for bi := 0; bi < nb; bi++ {
				b := d.slab.block(bi)
				ni, err := d.count("instr")
				if err != nil {
					return nil, err
				}
				b.Instrs = make([]Instr, 0, prealloc(ni, 1024))
				for ii := 0; ii < ni; ii++ {
					b.Instrs = append(b.Instrs, Instr{})
					in := &b.Instrs[ii]
					op, err := d.u()
					if err != nil {
						return nil, err
					}
					in.Op = Op(op)
					if in.A, err = d.reg(); err != nil {
						return nil, err
					}
					if in.B, err = d.reg(); err != nil {
						return nil, err
					}
					if in.C, err = d.reg(); err != nil {
						return nil, err
					}
					if in.Val, err = d.i(); err != nil {
						return nil, err
					}
					var o Operand
					if o.Sym, err = d.s(); err != nil {
						return nil, err
					}
					if o.CName, err = d.s(); err != nil {
						return nil, err
					}
					t, err := d.typeRef()
					if err != nil {
						return nil, err
					}
					if in.Op.HasType() || t != (TypeRef{}) {
						o.Type = d.slab.typeRef(t)
					}
					na, err := d.count("arg")
					if err != nil {
						return nil, err
					}
					d.args = d.args[:0]
					for ai := 0; ai < na; ai++ {
						a, err := d.i32("argument register")
						if err != nil {
							return nil, err
						}
						d.args = append(d.args, a)
					}
					if na > 0 {
						o.Args = d.slab.regs(na)
						copy(o.Args, d.args)
					}
					// An opcode without operands keeps any it was encoded
					// with, so a decoded program re-encodes to the same bytes.
					if in.Op.HasOperand() || !o.encodesEmpty() {
						in.Operand = d.slab.operand(o)
					}
				}
				top, err := d.u()
				if err != nil {
					return nil, err
				}
				b.Term.Op = TermOp(top)
				if b.Term.Cond, err = d.reg(); err != nil {
					return nil, err
				}
				if b.Term.Then, err = d.i32("block target"); err != nil {
					return nil, err
				}
				if b.Term.Else, err = d.i32("block target"); err != nil {
					return nil, err
				}
				if b.Term.Ret, err = d.reg(); err != nil {
					return nil, err
				}
				m.Blocks = append(m.Blocks, b)
			}
			c.Methods = append(c.Methods, m)
		}
		p.Classes = append(p.Classes, c)
	}
	if err := p.Resolve(); err != nil {
		return nil, fmt.Errorf("ir: decoded program does not resolve: %w", err)
	}
	return p, nil
}
