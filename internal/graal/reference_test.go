package graal

import (
	"sort"
	"testing"

	"nimage/internal/ir"
	"nimage/internal/murmur"
	"nimage/internal/workloads"
)

// This file keeps the straightforward compiler back end as a reference:
// the inliner, the constant collector and PEA each rescan a method's
// instructions every time the method joins a CU. Assemble consults one
// method scan instead, which every build of a program shares;
// TestAssembleMatchesReference checks that both form the same compilation
// units.

// refEffectiveSize is effectiveSize with the access count taken by a scan.
func refEffectiveSize(m *ir.Method, cfg Config, instr Instrumentation) int {
	n := 0
	for _, b := range m.Blocks {
		for i := range b.Instrs {
			n += b.Instrs[i].AccessCount()
		}
	}
	return effectiveSize(m, n, cfg, instr)
}

type refInliner struct {
	cfg   Config
	instr Instrumentation
	pgo   bool
}

func (il *refInliner) smallLimit() int {
	lim := il.cfg.InlineSmallSize
	if il.pgo {
		lim += il.cfg.PGOBonus
	}
	return lim
}

func (il *refInliner) build(root *ir.Method) *CompilationUnit {
	cu := &CompilationUnit{
		Root: root,
		Size: refEffectiveSize(root, il.cfg, il.instr),
	}
	if il.instr == InstrCU {
		cu.Size += il.cfg.ProbeCUEntry
	}
	il.inlineCalls(cu, root, map[*ir.Method]bool{root: true}, 1)
	// The member set, as a list sorted by method ID.
	members := map[*ir.Method]bool{root: true}
	for _, m := range cu.Inlined {
		members[m] = true
	}
	for m := range members {
		cu.Members = append(cu.Members, m)
	}
	sort.Slice(cu.Members, func(i, j int) bool { return cu.Members[i].ID < cu.Members[j].ID })
	return cu
}

func (il *refInliner) inlineCalls(cu *CompilationUnit, m *ir.Method, stack map[*ir.Method]bool, depth int) {
	if depth > il.cfg.MaxInlineDepth {
		return
	}
	for _, b := range m.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			var callee *ir.Method
			switch in.Op {
			case ir.OpCall:
				callee = in.Method
			case ir.OpCallVirt:
				targets := ir.Overriders(in.Method)
				if len(targets) == 1 {
					callee = targets[0]
				}
			}
			if callee == nil || callee.Clinit || stack[callee] {
				continue
			}
			cs := refEffectiveSize(callee, il.cfg, il.instr)
			if cs > il.smallLimit() || cu.Size+cs > il.cfg.CUBudget {
				continue
			}
			cu.Size += cs
			cu.Inlined = append(cu.Inlined, callee)
			stack[callee] = true
			il.inlineCalls(cu, callee, stack, depth+1)
			delete(stack, callee)
		}
	}
}

func refCollectConstants(cu *CompilationUnit, cfg Config) {
	comp := compositionHash(cu)
	seen := make(map[string]bool)
	members := append([]*ir.Method{cu.Root}, cu.Inlined...)
	for _, m := range members {
		for _, b := range m.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op != ir.OpConstStr || seen[in.Sym] {
					continue
				}
				seen[in.Sym] = true
				folded := false
				if cfg.FoldPercent > 0 {
					h := murmur.Sum64Seed([]byte(in.Sym), comp)
					folded = int(h%100) < cfg.FoldPercent
				}
				cu.Constants = append(cu.Constants, Constant{Literal: in.Sym, Source: m, Folded: folded})
			}
		}
	}
}

func refPEACount(cu *CompilationUnit) int {
	n := 0
	counted := make(map[*ir.Method]bool)
	for _, m := range append([]*ir.Method{cu.Root}, cu.Inlined...) {
		if counted[m] {
			continue
		}
		counted[m] = true
		n += refNonEscapingAllocs(m)
	}
	return n
}

func refNonEscapingAllocs(m *ir.Method) int {
	escaped := make(map[int]bool)
	allocs := make(map[int]bool)
	for _, b := range m.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpNew:
				allocs[int(in.A)] = true
			case ir.OpPutField:
				escaped[int(in.B)] = true
			case ir.OpArraySet:
				escaped[int(in.C)] = true
			case ir.OpPutStatic:
				escaped[int(in.A)] = true
			case ir.OpMove:
				escaped[int(in.B)] = true
			case ir.OpCall, ir.OpCallVirt, ir.OpIntrinsic:
				for _, a := range in.Args {
					escaped[int(a)] = true
				}
			}
		}
		if b.Term.Op == ir.TermReturn && b.Term.Ret != ir.RegNone {
			escaped[int(b.Term.Ret)] = true
		}
	}
	n := 0
	for r := range allocs {
		if !escaped[r] {
			n++
		}
	}
	return n
}

// refAssemble forms the CUs of a compilation the reference way.
func refAssemble(reach *Reachability, cfg Config, instr Instrumentation, pgo bool) []*CompilationUnit {
	il := &refInliner{cfg: cfg, instr: instr, pgo: pgo}
	var cus []*CompilationUnit
	for _, m := range reach.CompiledMethods() {
		cu := il.build(m)
		refCollectConstants(cu, cfg)
		cu.ScalarReplaced = refPEACount(cu)
		cus = append(cus, cu)
	}
	return cus
}

// TestAssembleMatchesReference compares Assemble with the reference back
// end on every workload under every instrumentation, with and without
// PGO, all eight compilations fed by one shared scan, as the builds of a
// pipeline are: each CU must have the same root, inlining order, size,
// constants (literal, source, folding) and scalar-replaced count. The workloads
// never inline a method that holds a string literal, so two small
// programs that do are compared too.
func TestAssembleMatchesReference(t *testing.T) {
	cfg := DefaultConfig()
	progs := []*ir.Program{buildWorld(t), buildLiteralWorld(t)}
	for _, w := range append(workloads.All(), workloads.Serve()...) {
		progs = append(progs, w.Build())
	}
	for _, p := range progs {
		reach := Analyze(p, cfg)
		scan := ScanMethods(reach)
		for _, instr := range []Instrumentation{InstrNone, InstrCU, InstrMethod, InstrHeap} {
			for _, pgo := range []bool{false, true} {
				got := Assemble(p, cfg, instr, pgo, reach, scan).CUs
				want := refAssemble(reach, cfg, instr, pgo)
				where := p.Name + "/" + instr.String()
				if pgo {
					where += "/pgo"
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d CUs, reference %d", where, len(got), len(want))
				}
				for i := range want {
					compareCUs(t, where, got[i], want[i])
				}
			}
		}
	}
}

// buildLiteralWorld builds a program whose inlined methods hold string
// literals — new ones, repeated ones, and ones the root shares — and one
// of which is inlined twice into the same CU.
func buildLiteralWorld(t *testing.T) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("literals")
	b.Class(ir.StringClass)
	c := b.Class("L").Field("x", ir.Int())

	tag := c.StaticMethod("tag", 1, ir.Int())
	te := tag.Entry()
	te.Str("shared")
	te.Str("tag-a")
	te.Str("tag-a")
	te.Str("tag-b")
	o := te.New("L")
	te.PutField(o, "L", "x", tag.Param(0))
	te.Ret(te.GetField(o, "L", "x"))

	wrap := c.StaticMethod("wrap", 1, ir.Int())
	we := wrap.Entry()
	we.Str("wrap")
	r := we.Call("L", "tag", wrap.Param(0))
	we.Ret(we.Call("L", "tag", r))

	main := c.StaticMethod("main", 0, ir.Void())
	me := main.Entry()
	me.Str("root")
	me.Str("shared")
	x := me.ConstInt(7)
	me.Call("L", "wrap", x)
	me.Call("L", "tag", x)
	me.RetVoid()

	b.SetEntry("L", "main")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func compareCUs(t *testing.T, where string, got, want *CompilationUnit) {
	t.Helper()
	where += ": CU " + want.Signature()
	if got.Root != want.Root {
		t.Fatalf("%s: rooted at %s", where, got.Signature())
	}
	if got.Size != want.Size {
		t.Fatalf("%s: size %d, reference %d", where, got.Size, want.Size)
	}
	if len(got.Inlined) != len(want.Inlined) {
		t.Fatalf("%s: %d inlinees, reference %d", where, len(got.Inlined), len(want.Inlined))
	}
	for i := range want.Inlined {
		if got.Inlined[i] != want.Inlined[i] {
			t.Fatalf("%s: inlinee %d is %s, reference %s", where, i, got.Inlined[i].Signature(), want.Inlined[i].Signature())
		}
	}
	if len(got.Members) != len(want.Members) {
		t.Fatalf("%s: %d members, reference %d", where, len(got.Members), len(want.Members))
	}
	for i := range want.Members {
		if got.Members[i] != want.Members[i] {
			t.Fatalf("%s: member %d is %s, reference %s", where, i, got.Members[i].Signature(), want.Members[i].Signature())
		}
	}
	if len(got.Constants) != len(want.Constants) {
		t.Fatalf("%s: %d constants, reference %d", where, len(got.Constants), len(want.Constants))
	}
	for i := range want.Constants {
		if got.Constants[i] != want.Constants[i] {
			t.Fatalf("%s: constant %d is %+v, reference %+v", where, i, got.Constants[i], want.Constants[i])
		}
	}
	if got.ScalarReplaced != want.ScalarReplaced {
		t.Fatalf("%s: %d scalar-replaced, reference %d", where, got.ScalarReplaced, want.ScalarReplaced)
	}
}
