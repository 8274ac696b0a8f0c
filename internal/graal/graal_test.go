package graal

import (
	"testing"

	"nimage/internal/ir"
)

// buildWorld constructs a program exercising the analysis and the inliner:
//
//   - Main.main calls Main.small (inlinable) and Main.big (too large),
//     virtual-dispatches Shape.area over 6 implementors (saturating),
//     and references string constants.
//   - Dead.never is not reachable.
//   - Util has a clinit (reachable via a static field access).
func buildWorld(t *testing.T) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("world")
	b.Class(ir.StringClass)

	shape := b.Class("Shape")
	sm := shape.Method("area", 0, ir.Int())
	se := sm.Entry()
	se.Ret(se.ConstInt(0))
	for _, n := range []string{"Circle", "Square", "Tri", "Hex", "Oct", "Rho"} {
		c := b.Class(n).Extends("Shape")
		m := c.Method("area", 0, ir.Int())
		e := m.Entry()
		e.Ret(e.ConstInt(int64(len(n))))
	}

	util := b.Class("Util")
	util.Static("table", ir.Array(ir.Int()))
	cl := util.Clinit()
	ce := cl.Entry()
	ln := ce.ConstInt(4)
	arr := ce.NewArray(ir.Int(), ln)
	ce.PutStatic("Util", "table", arr)
	ce.RetVoid()

	main := b.Class("Main")
	small := main.StaticMethod("small", 1, ir.Int())
	sme := small.Entry()
	one := sme.ConstInt(1)
	sme.Ret(sme.Arith(ir.Add, small.Param(0), one))

	big := main.StaticMethod("big", 1, ir.Int())
	be := big.Entry()
	acc := be.ConstInt(0)
	for i := 0; i < 40; i++ {
		k := be.ConstInt(int64(i))
		be.ArithTo(acc, ir.Add, acc, k)
	}
	be.Ret(acc)

	mm := main.StaticMethod("main", 0, ir.Void())
	me := mm.Entry()
	me.Str("hello-constant")
	me.Str("other-constant")
	x := me.ConstInt(5)
	me.Call("Main", "small", x)
	me.Call("Main", "big", x)
	sh := me.New("Circle")
	me.CallVirt("Shape", "area", sh)
	me.GetStatic("Util", "table")
	me.RetVoid()

	dead := b.Class("Dead")
	dm := dead.StaticMethod("never", 0, ir.Void())
	dm.Entry().RetVoid()

	b.SetEntry("Main", "main")
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestReachabilityConservative(t *testing.T) {
	p := buildWorld(t)
	r := Analyze(p, DefaultConfig())

	dead := p.Class("Dead").DeclaredMethod("never")
	if r.Methods[dead] {
		t.Error("dead method reachable")
	}
	// All six overriders of Shape.area are reachable even though only
	// Circle is instantiated — the analysis is conservative.
	for _, n := range []string{"Circle", "Square", "Tri", "Hex", "Oct", "Rho"} {
		m := p.Class(n).DeclaredMethod("area")
		if !r.Methods[m] {
			t.Errorf("%s.area not reachable", n)
		}
	}
	if r.SaturatedSites == 0 {
		t.Error("no saturated call sites recorded")
	}
	// Util is reachable via the static read, and its clinit is analyzed.
	if !r.Classes[p.Class("Util")] {
		t.Error("Util class not reachable")
	}
	if !r.Methods[p.Class("Util").Clinit()] {
		t.Error("Util clinit not reachable")
	}
}

func TestCompiledMethodsExcludeClinits(t *testing.T) {
	p := buildWorld(t)
	r := Analyze(p, DefaultConfig())
	for _, m := range r.CompiledMethods() {
		if m.Clinit {
			t.Errorf("clinit %s compiled into .text", m.Signature())
		}
	}
	// Alphabetical order.
	ms := r.CompiledMethods()
	for i := 1; i < len(ms); i++ {
		if ms[i-1].Signature() >= ms[i].Signature() {
			t.Fatalf("not sorted: %s before %s", ms[i-1].Signature(), ms[i].Signature())
		}
	}
}

func TestInlinerInlinesSmallNotBig(t *testing.T) {
	p := buildWorld(t)
	c := Compile(p, DefaultConfig(), InstrNone, false)
	mainCU := c.CUBySig["Main.main(0)"]
	if mainCU == nil {
		t.Fatal("no CU for main")
	}
	small := p.Class("Main").DeclaredMethod("small")
	big := p.Class("Main").DeclaredMethod("big")
	if !mainCU.Contains(small) {
		t.Error("small not inlined into main")
	}
	if mainCU.Contains(big) {
		t.Error("big inlined into main despite size")
	}
	// small is still compiled as its own CU root.
	if c.CUBySig["Main.small(1)"] == nil {
		t.Error("small lost its own CU")
	}
}

func TestPolymorphicCallNotInlined(t *testing.T) {
	p := buildWorld(t)
	c := Compile(p, DefaultConfig(), InstrNone, false)
	mainCU := c.CUBySig["Main.main(0)"]
	for _, n := range []string{"Circle", "Square"} {
		if mainCU.Contains(p.Class(n).DeclaredMethod("area")) {
			t.Errorf("polymorphic target %s.area inlined", n)
		}
	}
}

func TestInstrumentationPerturbsInlining(t *testing.T) {
	p := buildWorld(t)
	cfg := DefaultConfig()
	// Tighten the limit so the method probe pushes `small` over it.
	cfg.InlineSmallSize = effectiveSize(p.Class("Main").DeclaredMethod("small"), 0, cfg, InstrNone)
	reg := Compile(p, cfg, InstrNone, false)
	ins := Compile(p, cfg, InstrMethod, false)
	small := p.Class("Main").DeclaredMethod("small")
	if !reg.CUBySig["Main.main(0)"].Contains(small) {
		t.Fatal("regular build should inline small")
	}
	if ins.CUBySig["Main.main(0)"].Contains(small) {
		t.Error("method-instrumented build still inlines small — probes did not perturb")
	}
}

func TestInstrumentationSizeOrdering(t *testing.T) {
	// Method-entry probes inflate more than CU probes; heap probes inflate
	// access-heavy code most. This ordering underlies the overhead ranking
	// of Sec. 7.4 and the cu>method accuracy ranking of Sec. 7.2.
	p := buildWorld(t)
	cfg := DefaultConfig()
	none := Compile(p, cfg, InstrNone, false).TextSize()
	cu := Compile(p, cfg, InstrCU, false).TextSize()
	method := Compile(p, cfg, InstrMethod, false).TextSize()
	if !(none < cu && cu < method) {
		t.Errorf("text sizes none=%d cu=%d method=%d, want none<cu<method", none, cu, method)
	}
}

func TestPGOChangesInlining(t *testing.T) {
	p := buildWorld(t)
	cfg := DefaultConfig()
	small := p.Class("Main").DeclaredMethod("small")
	// Choose the limit just below small's size: only the PGO bonus makes
	// it inlinable.
	cfg.InlineSmallSize = effectiveSize(small, 0, cfg, InstrNone) - 1
	reg := Compile(p, cfg, InstrNone, false)
	opt := Compile(p, cfg, InstrNone, true)
	if reg.CUBySig["Main.main(0)"].Contains(small) {
		t.Fatal("regular build inlined small below limit")
	}
	if !opt.CUBySig["Main.main(0)"].Contains(small) {
		t.Error("PGO build did not get the inline bonus")
	}
}

func TestConstantsCollectedAndFoldingDeterministic(t *testing.T) {
	p := buildWorld(t)
	cfg := DefaultConfig()
	c1 := Compile(p, cfg, InstrNone, false)
	c2 := Compile(p, cfg, InstrNone, false)
	cu1 := c1.CUBySig["Main.main(0)"]
	cu2 := c2.CUBySig["Main.main(0)"]
	if len(cu1.Constants) < 2 {
		t.Fatalf("constants = %v", cu1.Constants)
	}
	if len(cu1.Constants) != len(cu2.Constants) {
		t.Fatal("non-deterministic constant collection")
	}
	for i := range cu1.Constants {
		if cu1.Constants[i] != cu2.Constants[i] {
			t.Errorf("constant %d differs across identical compilations", i)
		}
	}
}

func TestCUsSortedAndIndexed(t *testing.T) {
	p := buildWorld(t)
	c := Compile(p, DefaultConfig(), InstrNone, false)
	if len(c.CUs) == 0 {
		t.Fatal("no CUs")
	}
	for i := 1; i < len(c.CUs); i++ {
		if c.CUs[i-1].Signature() >= c.CUs[i].Signature() {
			t.Fatalf("CUs not alphabetical at %d", i)
		}
	}
	for _, cu := range c.CUs {
		if c.CUBySig[cu.Signature()] != cu {
			t.Fatalf("index broken for %s", cu.Signature())
		}
		if cu.Size <= 0 {
			t.Fatalf("CU %s has size %d", cu.Signature(), cu.Size)
		}
	}
}

func TestPEACountsNonEscaping(t *testing.T) {
	b := ir.NewBuilder("pea")
	b.Class(ir.StringClass)
	c := b.Class("C").Field("x", ir.Int())
	b.Class("Box").Field("v", ir.Ref("C"))

	m := c.StaticMethod("f", 0, ir.Int())
	e := m.Entry()
	// o1 does not escape: only its own field is written/read.
	o1 := e.New("C")
	k := e.ConstInt(3)
	e.PutField(o1, "C", "x", k)
	r := e.GetField(o1, "C", "x")
	// o2 escapes into a box field.
	o2 := e.New("C")
	box := e.New("Box")
	e.PutField(box, "Box", "v", o2)
	e.Ret(r)
	b.SetEntry("C", "f")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	got := new(scanner).nonEscapingAllocs(p.Class("C").DeclaredMethod("f"))
	// o1 does not escape; o2 escapes; box itself does not escape.
	if got != 2 {
		t.Errorf("nonEscapingAllocs = %d, want 2 (o1 and box)", got)
	}
}

func TestSpawnTargetReachable(t *testing.T) {
	b := ir.NewBuilder("spawn")
	b.Class(ir.StringClass)
	w := b.Class("Worker")
	run := w.StaticMethod("run", 1, ir.Void())
	run.Entry().RetVoid()
	m := b.Class("Main")
	mm := m.StaticMethod("main", 0, ir.Void())
	e := mm.Entry()
	one := e.ConstInt(1)
	e.Spawn("Worker.run", one)
	e.RetVoid()
	b.SetEntry("Main", "main")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(p, DefaultConfig())
	if !r.Methods[p.Class("Worker").DeclaredMethod("run")] {
		t.Error("spawn target not reachable")
	}
}
