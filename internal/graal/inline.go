package graal

import (
	"slices"

	"nimage/internal/ir"
)

// CompilationUnit is a CU of the .text section: a root method plus every
// method transitively inlined into it (Sec. 2). The same method may be
// inlined into several CUs and still be compiled as its own CU root.
type CompilationUnit struct {
	// Root is the method the compilation started from; its signature names
	// the CU in ordering profiles.
	Root *ir.Method
	// Inlined lists the inlined methods (excluding the root) in inlining
	// decision order. A method can appear more than once if several call
	// sites inlined it.
	Inlined []*ir.Method
	// Members lists the distinct methods whose code is inside this CU (the
	// root and every inlinee), sorted by Method.ID.
	Members []*ir.Method
	// Size is the estimated compiled size in bytes, including probes.
	Size int
	// Constants lists the distinct string literals embedded in the CU's
	// compiled code together with the method whose code references them;
	// each surviving constant becomes a heap-snapshot root (Sec. 5.3).
	Constants []Constant
	// ScalarReplaced counts allocations removed by partial escape analysis
	// inside this CU.
	ScalarReplaced int
}

// Constant is a string literal embedded in compiled code.
type Constant struct {
	// Literal is the string value.
	Literal string
	// Source is the method whose bytecode contains the literal.
	Source *ir.Method
	// Folded marks constants that optimization removed from the code (and
	// hence from the heap snapshot) — e.g. constant-folded reads enabled by
	// inlining/PEA. Folding depends on the CU composition, so it differs
	// across builds with different inlining.
	Folded bool
}

// Contains reports whether m's code is inside the CU. The inliner only
// inlines small methods into a size-bounded CU, so a CU has few members,
// and a scan that compares pointers beats a search that reads their IDs.
func (cu *CompilationUnit) Contains(m *ir.Method) bool { return slices.Contains(cu.Members, m) }

// Signature returns the root-method signature that identifies the CU.
func (cu *CompilationUnit) Signature() string { return cu.Root.Signature() }

// inliner builds the CU for one root using a greedy, size-driven policy.
type inliner struct {
	cfg   Config
	instr Instrumentation
	pgo   bool
	scan  *MethodScan
	// stack holds the methods on the current inlining path, root first
	// (at most MaxInlineDepth+1 long); it is reused across CUs.
	stack []*ir.Method
}

// effectiveSize returns the method's code size including the inflation its
// probes cause under the given instrumentation kind; accesses is the
// method's count of traced access events (Instr.AccessCount, recorded by
// the method scan), the events the heap-ordering instrumentation records
// (Sec. 6.1).
func effectiveSize(m *ir.Method, accesses int, cfg Config, instr Instrumentation) int {
	s := m.CodeSize()
	switch instr {
	case InstrMethod:
		s += cfg.ProbeMethodEntry
	case InstrHeap:
		s += cfg.ProbePerBlock * len(m.Blocks)
		s += cfg.ProbePerAccess * accesses
	}
	return s
}

func (il *inliner) smallLimit() int {
	lim := il.cfg.InlineSmallSize
	if il.pgo {
		lim += il.cfg.PGOBonus
	}
	return lim
}

// build creates the CU rooted at root.
func (il *inliner) build(root *ir.Method) *CompilationUnit {
	cu := &CompilationUnit{
		Root: root,
		Size: il.scan.size(root, il.cfg, il.instr),
	}
	if il.instr == InstrCU {
		cu.Size += il.cfg.ProbeCUEntry
	}
	il.stack = append(il.stack[:0], root)
	il.inlineCalls(cu, root, 1)
	cu.Members = append(make([]*ir.Method, 0, len(cu.Inlined)+1), root)
	cu.Members = append(cu.Members, cu.Inlined...)
	slices.SortFunc(cu.Members, func(a, b *ir.Method) int { return a.ID - b.ID })
	cu.Members = slices.Compact(cu.Members)
	return cu
}

// inlineCalls walks the inlining candidates of m (already part of cu) in
// call-site order and greedily inlines eligible callees.
func (il *inliner) inlineCalls(cu *CompilationUnit, m *ir.Method, depth int) {
	if depth > il.cfg.MaxInlineDepth {
		return
	}
	for _, callee := range il.scan.facts[m].callees {
		if slices.Contains(il.stack, callee) {
			continue // recursion never inlines
		}
		cs := il.scan.size(callee, il.cfg, il.instr)
		if cs > il.smallLimit() || cu.Size+cs > il.cfg.CUBudget {
			continue
		}
		cu.Size += cs
		cu.Inlined = append(cu.Inlined, callee)
		il.stack = append(il.stack, callee)
		il.inlineCalls(cu, callee, depth+1)
		il.stack = il.stack[:len(il.stack)-1]
	}
}

// buildCUs forms compilation units for every compiled method. CUs are
// returned in the default Native-Image order: alphabetical by root signature
// (Sec. 2).
func buildCUs(reach *Reachability, scan *MethodScan, cfg Config, instr Instrumentation, pgo bool) []*CompilationUnit {
	il := &inliner{cfg: cfg, instr: instr, pgo: pgo, scan: scan}
	methods := reach.CompiledMethods()
	cus := make([]*CompilationUnit, 0, len(methods))
	// CompiledMethods is sorted by signature, so the CUs already are.
	for _, m := range methods {
		cus = append(cus, il.build(m))
	}
	return cus
}
