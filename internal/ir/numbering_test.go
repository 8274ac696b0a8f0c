package ir_test

import (
	"testing"

	"nimage/internal/ir"
	"nimage/internal/workloads"
)

// everyProgram returns every workload program (AWFY, microservices and
// serve), resolved.
func everyProgram() []*ir.Program {
	var out []*ir.Program
	for _, w := range append(workloads.All(), workloads.Serve()...) {
		out = append(out, w.Build())
	}
	return out
}

// TestStaticSlotsOnEveryWorkload: after Resolve, every static field's Slot
// is its index in its class's Statics, on every workload program.
func TestStaticSlotsOnEveryWorkload(t *testing.T) {
	for _, p := range everyProgram() {
		statics := 0
		for _, c := range p.Classes {
			for i, f := range c.Statics {
				statics++
				if f.Slot != i || f.Class != c || !f.Static {
					t.Fatalf("%s: static %s has Slot %d (class %s, static %v), want Slot %d of %s",
						p.Name, f.Name, f.Slot, f.Class.Name, f.Static, i, c.Name)
				}
			}
		}
		if statics == 0 {
			t.Errorf("%s: no static fields", p.Name)
		}
	}
}

// TestMethodIDsDense: Resolve numbers the methods 1, 2, … in declaration
// order.
func TestMethodIDsDense(t *testing.T) {
	for _, p := range everyProgram() {
		for i, m := range p.Methods() {
			if m.ID != i+1 {
				t.Fatalf("%s: method %d (%s) has ID %d", p.Name, i, m.Signature(), m.ID)
			}
		}
	}
}

// TestDispatchTablesOnEveryWorkload: the selectors are the distinct
// method names callvirt instructions name; for every class and selector,
// the dispatch table entry is LookupMethod of the selector's name; and a
// method's Selector is the number of its name's selector, or 0.
func TestDispatchTablesOnEveryWorkload(t *testing.T) {
	total := 0
	for _, p := range everyProgram() {
		named := map[string]bool{}
		for _, m := range p.Methods() {
			for _, b := range m.Blocks {
				for _, in := range b.Instrs {
					if in.Op == ir.OpCallVirt {
						named[in.Sym] = true
					}
				}
			}
		}
		sels := p.Selectors()
		if len(sels) != len(named) {
			t.Fatalf("%s: %d selectors, callvirts name %d methods", p.Name, len(sels), len(named))
		}
		total += len(sels)
		number := map[string]int{}
		for i, name := range sels {
			if !named[name] || number[name] != 0 {
				t.Fatalf("%s: selector %d %q is not a distinct callvirt name", p.Name, i+1, name)
			}
			number[name] = i + 1
		}
		for _, c := range p.Classes {
			for s, name := range sels {
				if got, want := c.Dispatch(s+1), c.LookupMethod(name); got != want {
					t.Fatalf("%s: %s.Dispatch(%d %q) = %v, LookupMethod = %v", p.Name, c.Name, s+1, name, got, want)
				}
			}
			for _, m := range c.Methods {
				if m.Selector != number[m.Name] {
					t.Fatalf("%s: %s has Selector %d, want %d", p.Name, m.Signature(), m.Selector, number[m.Name])
				}
			}
		}
	}
	if total == 0 {
		t.Error("no workload program makes a virtual call")
	}
}
