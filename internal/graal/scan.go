package graal

import (
	"slices"

	"nimage/internal/ir"
)

// methodFacts is what the compiler needs from one method's instructions:
// its inlining candidates, string literals, probe-inflated size and PEA
// count. A compilation reads every method once to fill them (scanMethods);
// the inliner, the constant collector and PEA then consult the facts
// instead of rescanning the method for every CU it joins.
type methodFacts struct {
	// size is the effective code size under the compilation's
	// instrumentation (effectiveSize).
	size int
	// callees lists the inlining candidates in call-site order: direct
	// callees and monomorphic virtual-call targets, excluding class
	// initializers (which run at build time and never inline).
	callees []*ir.Method
	// literals lists the distinct string literals in code order.
	literals []string
	// nonEscaping counts the allocations PEA scalar-replaces.
	nonEscaping int
}

// factTable maps every compiled method of one compilation to its facts.
// It lives only as long as Assemble: finished compilations keep nothing
// of it.
type factTable map[*ir.Method]methodFacts

// scanMethods reads each method once and records its facts under cfg and
// instr. Class initializers are skipped: they are neither compiled nor
// inlined. The callee and literal lists of all entries share two backing
// arrays.
func scanMethods(methods []*ir.Method, cfg Config, instr Instrumentation) factTable {
	t := make(factTable, len(methods))
	var s scanner
	for _, m := range methods {
		if !m.Clinit {
			t[m] = s.scan(m, cfg, instr)
		}
	}
	return t
}

// scanner carries the backing arrays and scratch space shared by the scans
// of one compilation.
type scanner struct {
	callees  []*ir.Method
	literals []string
	// escape holds one byte of PEA flags per register of the method being
	// scanned (allocated / escaped).
	escape []uint8
}

// scan records m's facts. The callee and literal slices it returns are
// capped, so appends by later scans never write into them.
func (s *scanner) scan(m *ir.Method, cfg Config, instr Instrumentation) methodFacts {
	c0, l0 := len(s.callees), len(s.literals)
	// Only heap probes grow with the access count (effectiveSize).
	heapProbes := instr == InstrHeap
	accesses := 0
	for _, b := range m.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if heapProbes {
				accesses += in.AccessCount()
			}
			var callee *ir.Method
			switch in.Op {
			case ir.OpCall:
				callee = in.Method
			case ir.OpCallVirt:
				// Only monomorphic virtual calls inline (devirtualization).
				if targets := ir.Overriders(in.Method); len(targets) == 1 {
					callee = targets[0]
				}
			case ir.OpConstStr:
				if !slices.Contains(s.literals[l0:], in.Sym) {
					s.literals = append(s.literals, in.Sym)
				}
			}
			if callee != nil && !callee.Clinit {
				s.callees = append(s.callees, callee)
			}
		}
	}
	c1, l1 := len(s.callees), len(s.literals)
	return methodFacts{
		size:        effectiveSize(m, accesses, cfg, instr),
		callees:     s.callees[c0:c1:c1],
		literals:    s.literals[l0:l1:l1],
		nonEscaping: s.nonEscapingAllocs(m),
	}
}

// PEA flags of one register.
const (
	escAlloc   uint8 = 1 << iota // holds a fresh allocation
	escEscaped                   // its value escapes
)

// nonEscapingAllocs counts OpNew results that never escape the method:
// never stored into another object/array/static, never passed to a call,
// never returned, and never copied. Writes into the fresh object's own
// fields do not count as escapes.
//
// m must belong to a resolved program: the flags are indexed by register,
// and Resolve is what bounds every register an instruction names to
// [0, NumRegs).
func (s *scanner) nonEscapingAllocs(m *ir.Method) int {
	if cap(s.escape) < m.NumRegs {
		s.escape = make([]uint8, m.NumRegs)
	}
	flags := s.escape[:m.NumRegs]
	clear(flags)
	for _, b := range m.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpNew:
				// A later redefinition of a register invalidates tracking;
				// treat each New register as one allocation site.
				flags[in.A] |= escAlloc
			case ir.OpPutField:
				// obj.f = val: the value escapes into obj.
				flags[in.B] |= escEscaped
			case ir.OpArraySet:
				flags[in.C] |= escEscaped
			case ir.OpPutStatic:
				flags[in.A] |= escEscaped
			case ir.OpMove:
				flags[in.B] |= escEscaped
			case ir.OpCall, ir.OpCallVirt, ir.OpIntrinsic:
				for _, a := range in.Args {
					flags[a] |= escEscaped
				}
			}
		}
		if b.Term.Op == ir.TermReturn && b.Term.Ret >= 0 {
			flags[b.Term.Ret] |= escEscaped
		}
	}
	n := 0
	for _, f := range flags {
		if f == escAlloc {
			n++
		}
	}
	return n
}
