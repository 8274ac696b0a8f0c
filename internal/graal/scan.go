package graal

import (
	"slices"

	"nimage/internal/ir"
)

// MethodScan is what the compiler needs from each compiled method's
// instructions: its inlining candidates, string literals, access count and
// PEA count. None of it depends on the compiler configuration, the
// instrumentation or PGO, so one scan serves every build of a program:
// the inliner, the constant collector and PEA consult it instead of
// rescanning a method for every CU it joins, and a pipeline scans once
// next to its one Analyze. Compilations keep nothing of it.
type MethodScan struct {
	facts map[*ir.Method]methodFacts
}

// methodFacts is the scan of one method.
type methodFacts struct {
	// callees lists the inlining candidates in call-site order: direct
	// callees and monomorphic virtual-call targets, excluding class
	// initializers (which run at build time and never inline).
	callees []*ir.Method
	// literals lists the distinct string literals in code order.
	literals []string
	// accesses counts the traced access events (Instr.AccessCount), from
	// which effectiveSize derives the heap-probe inflation.
	accesses int
	// nonEscaping counts the allocations PEA scalar-replaces.
	nonEscaping int
}

// ScanMethods reads each method reach found once and records its facts.
// Class initializers are skipped: they are neither compiled nor inlined.
func ScanMethods(reach *Reachability) *MethodScan {
	return scanMethods(reach.MethodOrder)
}

// scanMethods scans the given methods. The callee and literal lists of
// all entries share two backing arrays.
func scanMethods(methods []*ir.Method) *MethodScan {
	t := make(map[*ir.Method]methodFacts, len(methods))
	var s scanner
	for _, m := range methods {
		if !m.Clinit {
			t[m] = s.scan(m)
		}
	}
	return &MethodScan{facts: t}
}

// size returns m's effective code size under cfg and instr.
func (sc *MethodScan) size(m *ir.Method, cfg Config, instr Instrumentation) int {
	return effectiveSize(m, sc.facts[m].accesses, cfg, instr)
}

// scanner carries the backing arrays and scratch space shared by the scans
// of one MethodScan.
type scanner struct {
	callees  []*ir.Method
	literals []string
	// escape holds one byte of PEA flags per register of the method being
	// scanned (allocated / escaped).
	escape []uint8
}

// scan records m's facts. The callee and literal slices it returns are
// capped, so appends by later scans never write into them.
func (s *scanner) scan(m *ir.Method) methodFacts {
	c0, l0 := len(s.callees), len(s.literals)
	accesses := 0
	for _, b := range m.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			accesses += in.AccessCount()
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
		callees:     s.callees[c0:c1:c1],
		literals:    s.literals[l0:l1:l1],
		accesses:    accesses,
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
		if b.Term.Op == ir.TermReturn && b.Term.Ret != ir.RegNone {
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
