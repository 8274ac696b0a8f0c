package vm

import (
	"testing"

	"nimage/internal/heap"
	"nimage/internal/ir"
)

func TestComposeHooksBothFire(t *testing.T) {
	var log []string
	mk := func(tag string) Hooks {
		return Hooks{
			OnEnterCU:     func(tid int, m *ir.Method) { log = append(log, tag+":cu") },
			OnMethodEnter: func(tid int, m *ir.Method) { log = append(log, tag+":enter") },
			OnMethodExit:  func(tid int, m *ir.Method) { log = append(log, tag+":exit") },
			OnBlock:       func(tid int, m *ir.Method, b int) { log = append(log, tag+":block") },
			OnAccess:      func(tid int, o *heap.Object, instr bool) { log = append(log, tag+":access") },
			OnSnapshotAccess: func(tid int, o *heap.Object, instr bool) {
				log = append(log, tag+":snapshot-access")
			},
			OnNew:     func(tid int, c *ir.Class) { log = append(log, tag+":new") },
			OnRespond: func() { log = append(log, tag+":respond") },
		}
	}
	h := ComposeHooks(mk("a"), mk("b"))
	h.OnEnterCU(0, nil)
	h.OnMethodEnter(0, nil)
	h.OnMethodExit(0, nil)
	h.OnBlock(0, nil, 0)
	h.OnAccess(0, nil, true)
	h.OnSnapshotAccess(0, nil, true)
	h.OnNew(0, nil)
	h.OnRespond()
	want := []string{
		"a:cu", "b:cu", "a:enter", "b:enter", "a:exit", "b:exit",
		"a:block", "b:block", "a:access", "b:access",
		"a:snapshot-access", "b:snapshot-access", "a:new", "b:new",
		"a:respond", "b:respond",
	}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log[%d] = %s, want %s", i, log[i], want[i])
		}
	}
}

func TestComposeHooksNilSides(t *testing.T) {
	fired := 0
	a := Hooks{OnMethodEnter: func(tid int, m *ir.Method) { fired++ }}
	// nil on either side must pass the other through.
	l := ComposeHooks(a, Hooks{})
	r := ComposeHooks(Hooks{}, a)
	l.OnMethodEnter(0, nil)
	r.OnMethodEnter(0, nil)
	if fired != 2 {
		t.Errorf("fired = %d", fired)
	}
	if l.OnEnterCU != nil || l.OnRespond != nil {
		t.Error("absent hooks must stay nil")
	}
}

func TestComposeHooksInlineOracle(t *testing.T) {
	yes := func(ctx, callee *ir.Method) bool { return true }
	no := func(ctx, callee *ir.Method) bool { return false }
	if h := ComposeHooks(Hooks{InlineOf: yes}, Hooks{InlineOf: no}); !h.InlineOf(nil, nil) {
		t.Error("first oracle must win")
	}
	if h := ComposeHooks(Hooks{}, Hooks{InlineOf: yes}); !h.InlineOf(nil, nil) {
		t.Error("second oracle must be used when first absent")
	}
}

func TestRunMethodRejectsInstanceMethod(t *testing.T) {
	b := ir.NewBuilder("inst")
	b.Class(ir.StringClass)
	c := b.Class("C")
	m := c.Method("f", 0, ir.Void())
	m.Entry().RetVoid()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mach := New(p)
	if _, err := mach.RunMethod(p.Class("C").DeclaredMethod("f")); err == nil {
		t.Fatal("instance method accepted by RunMethod")
	}
}

func TestRunProgramWithoutEntry(t *testing.T) {
	b := ir.NewBuilder("noentry")
	b.Class(ir.StringClass)
	c := b.Class("C")
	m := c.StaticMethod("f", 0, ir.Void())
	m.Entry().RetVoid()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mach := New(p)
	if err := mach.RunProgram(); err == nil {
		t.Fatal("program without entry ran")
	}
}

func TestRollbackWithoutJournalIsNoop(t *testing.T) {
	b := ir.NewBuilder("nj")
	b.Class(ir.StringClass)
	c := b.Class("C")
	m := c.StaticMethod("f", 0, ir.Void())
	m.Entry().RetVoid()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mach := New(p)
	mach.Rollback() // must not panic
}
