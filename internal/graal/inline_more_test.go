package graal

import (
	"fmt"
	"testing"

	"nimage/internal/ir"
)

// TestCUBudgetCapsTotalSize: a root with many inlinable callees stops
// inlining once the CU budget is reached.
func TestCUBudgetCapsTotalSize(t *testing.T) {
	b := ir.NewBuilder("budget")
	b.Class(ir.StringClass)
	c := b.Class("B")
	for i := 0; i < 64; i++ {
		m := c.StaticMethod(fmt.Sprintf("leaf%02d", i), 1, ir.Int())
		e := m.Entry()
		acc := e.Move(m.Param(0))
		for k := 0; k < 4; k++ {
			kc := e.ConstInt(int64(k))
			e.ArithTo(acc, ir.Add, acc, kc)
		}
		e.Ret(acc)
	}
	root := c.StaticMethod("root", 1, ir.Int())
	re := root.Entry()
	acc := re.Move(root.Param(0))
	for i := 0; i < 64; i++ {
		r := re.Call("B", fmt.Sprintf("leaf%02d", i), acc)
		re.MoveTo(acc, r)
	}
	re.Ret(acc)
	b.SetEntry("B", "root")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	// The budget caps inlining additions on top of the root's own size.
	rootSize := p.Class("B").DeclaredMethod("root").CodeSize()
	cfg.CUBudget = rootSize + 400
	comp := Compile(p, cfg, InstrNone, false)
	cu := comp.CUBySig["B.root(1)"]
	if cu.Size > cfg.CUBudget {
		t.Errorf("CU size %d exceeds budget %d", cu.Size, cfg.CUBudget)
	}
	if len(cu.Inlined) == 0 {
		t.Error("nothing inlined at all")
	}
	if len(cu.Inlined) == 64 {
		t.Error("budget did not stop inlining")
	}
}

// TestMaxInlineDepth: a chain a->b->c->... inlines only MaxInlineDepth
// levels deep.
func TestMaxInlineDepth(t *testing.T) {
	b := ir.NewBuilder("depth")
	b.Class(ir.StringClass)
	c := b.Class("D")
	const chain = 8
	for i := chain - 1; i >= 0; i-- {
		m := c.StaticMethod(fmt.Sprintf("f%d", i), 1, ir.Int())
		e := m.Entry()
		if i == chain-1 {
			e.Ret(m.Param(0))
		} else {
			r := e.Call("D", fmt.Sprintf("f%d", i+1), m.Param(0))
			e.Ret(r)
		}
	}
	b.SetEntry("D", "f0")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxInlineDepth = 3
	comp := Compile(p, cfg, InstrNone, false)
	cu := comp.CUBySig["D.f0(1)"]
	if got := len(cu.Inlined); got != 3 {
		t.Errorf("inlined %d levels, want 3", got)
	}
}

// TestRecursionNotInlined: direct and mutual recursion never inline into
// themselves.
func TestRecursionNotInlined(t *testing.T) {
	b := ir.NewBuilder("rec")
	b.Class(ir.StringClass)
	c := b.Class("R")
	even := c.StaticMethod("even", 1, ir.Int())
	odd := c.StaticMethod("odd", 1, ir.Int())
	ee := even.Entry()
	zero := ee.ConstInt(0)
	isZ := ee.Cmp(ir.Eq, even.Param(0), zero)
	yes := even.NewBlock()
	no := even.NewBlock()
	ee.If(isZ, yes, no)
	one0 := yes.ConstInt(1)
	yes.Ret(one0)
	one := no.ConstInt(1)
	n1 := no.Arith(ir.Sub, even.Param(0), one)
	no.Ret(no.Call("R", "odd", n1))

	oe := odd.Entry()
	zero2 := oe.ConstInt(0)
	isZ2 := oe.Cmp(ir.Eq, odd.Param(0), zero2)
	yes2 := odd.NewBlock()
	no2 := odd.NewBlock()
	oe.If(isZ2, yes2, no2)
	z := yes2.ConstInt(0)
	yes2.Ret(z)
	one2 := no2.ConstInt(1)
	n2 := no2.Arith(ir.Sub, odd.Param(0), one2)
	no2.Ret(no2.Call("R", "even", n2))

	b.SetEntry("R", "even")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	comp := Compile(p, DefaultConfig(), InstrNone, false)
	evenCU := comp.CUBySig["R.even(1)"]
	// even may inline odd, but the nested odd->even edge must not bring
	// even back into its own CU.
	for _, m := range evenCU.Inlined {
		if m == p.Class("R").DeclaredMethod("even") {
			t.Fatal("even inlined into itself")
		}
	}
}

// TestConstantFoldingDependsOnComposition: the folded-constant set of a CU
// changes when its member set changes (the heap-divergence mechanism).
func TestConstantFoldingDependsOnComposition(t *testing.T) {
	mk := func(extraCallee bool) map[string]bool {
		b := ir.NewBuilder("fold")
		b.Class(ir.StringClass)
		c := b.Class("F")
		callee := c.StaticMethod("small", 1, ir.Int())
		ce := callee.Entry()
		one := ce.ConstInt(1)
		ce.Ret(ce.Arith(ir.Add, callee.Param(0), one))
		root := c.StaticMethod("root", 1, ir.Int())
		re := root.Entry()
		// Many literals so FoldPercent has something to act on.
		for i := 0; i < 40; i++ {
			re.Str(fmt.Sprintf("lit-%02d", i))
		}
		acc := re.Move(root.Param(0))
		if extraCallee {
			r := re.Call("F", "small", acc)
			re.MoveTo(acc, r)
		}
		re.Ret(acc)
		b.SetEntry("F", "root")
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		comp := Compile(p, DefaultConfig(), InstrNone, false)
		folded := map[string]bool{}
		for _, cst := range comp.CUBySig["F.root(1)"].Constants {
			if cst.Folded {
				folded[cst.Literal] = true
			}
		}
		return folded
	}
	a, b2 := mk(false), mk(true)
	if len(a) == 0 && len(b2) == 0 {
		t.Skip("fold percent produced no folds on this literal set")
	}
	same := len(a) == len(b2)
	if same {
		for k := range a {
			if !b2[k] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("folded set identical despite different CU composition")
	}
}

// TestInstrumentationHeapInflatesAccessHeavyCode: heap probes grow methods
// proportionally to their access counts.
func TestInstrumentationHeapInflatesAccessHeavyCode(t *testing.T) {
	b := ir.NewBuilder("inflate")
	b.Class(ir.StringClass)
	c := b.Class("I").Field("x", ir.Int())
	hot := c.StaticMethod("accessy", 1, ir.Int())
	he := hot.Entry()
	o := he.New("I")
	acc := he.Move(hot.Param(0))
	for k := 0; k < 10; k++ {
		he.PutField(o, "I", "x", acc)
		v := he.GetField(o, "I", "x")
		he.MoveTo(acc, v)
	}
	he.Ret(acc)
	calm := c.StaticMethod("arithy", 1, ir.Int())
	cae := calm.Entry()
	acc2 := cae.Move(calm.Param(0))
	for k := 0; k < 20; k++ {
		kc := cae.ConstInt(int64(k))
		cae.ArithTo(acc2, ir.Add, acc2, kc)
	}
	cae.Ret(acc2)
	b.SetEntry("I", "accessy")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	am := p.Class("I").DeclaredMethod("accessy")
	cm := p.Class("I").DeclaredMethod("arithy")
	scan := scanMethods([]*ir.Method{am, cm})
	for _, m := range []*ir.Method{am, cm} {
		if got, want := scan.size(m, cfg, InstrHeap), refEffectiveSize(m, cfg, InstrHeap); got != want {
			t.Errorf("%s: heap-instrumented size %d from the scan, %d from a rescan", m.Signature(), got, want)
		}
	}
	accessGrowth := scan.size(am, cfg, InstrHeap) - scan.size(am, cfg, InstrNone)
	calmGrowth := scan.size(cm, cfg, InstrHeap) - scan.size(cm, cfg, InstrNone)
	if accessGrowth <= calmGrowth {
		t.Errorf("access-heavy growth %d <= arithmetic growth %d", accessGrowth, calmGrowth)
	}
}

// TestSaturationThresholdCounting: lowering the threshold flags more sites.
func TestSaturationThresholdCounting(t *testing.T) {
	b := ir.NewBuilder("sat")
	b.Class(ir.StringClass)
	base := b.Class("Base")
	bm := base.Method("v", 0, ir.Int())
	be := bm.Entry()
	be.Ret(be.ConstInt(0))
	for i := 0; i < 3; i++ {
		c := b.Class(fmt.Sprintf("Impl%d", i)).Extends("Base")
		m := c.Method("v", 0, ir.Int())
		e := m.Entry()
		e.Ret(e.ConstInt(int64(i)))
	}
	main := b.Class("Main")
	mm := main.StaticMethod("main", 0, ir.Void())
	e := mm.Entry()
	o := e.New("Impl0")
	e.CallVirt("Base", "v", o)
	e.RetVoid()
	b.SetEntry("Main", "main")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	low := DefaultConfig()
	low.SaturationThreshold = 2
	high := DefaultConfig()
	high.SaturationThreshold = 10
	if got := Analyze(p, low).SaturatedSites; got != 1 {
		t.Errorf("low threshold saturated sites = %d", got)
	}
	if got := Analyze(p, high).SaturatedSites; got != 0 {
		t.Errorf("high threshold saturated sites = %d", got)
	}
}
