package graal_test

import (
	"testing"

	"nimage/internal/graal"
	"nimage/internal/workloads"
)

// TestCUOrderIsSignatureOrder pins the default .text order on every
// workload: Assemble emits one CU per compiled method, in the order of
// CompiledMethods, and that order is strictly increasing by root signature
// under every instrumentation, with and without PGO inlining.
func TestCUOrderIsSignatureOrder(t *testing.T) {
	cfg := graal.DefaultConfig()
	for _, w := range append(workloads.All(), workloads.Serve()...) {
		p := w.Build()
		reach := graal.Analyze(p, cfg)
		scan := graal.ScanMethods(reach)
		methods := reach.CompiledMethods()
		for _, instr := range []graal.Instrumentation{graal.InstrNone, graal.InstrCU, graal.InstrMethod, graal.InstrHeap} {
			for _, pgo := range []bool{false, true} {
				cus := graal.Assemble(p, cfg, instr, pgo, reach, scan).CUs
				if len(cus) != len(methods) {
					t.Fatalf("%s/%s/pgo=%v: %d CUs for %d compiled methods", w.Name, instr, pgo, len(cus), len(methods))
				}
				for i, cu := range cus {
					if cu.Root != methods[i] {
						t.Fatalf("%s/%s/pgo=%v: CU %d is rooted at %s, want %s",
							w.Name, instr, pgo, i, cu.Signature(), methods[i].Signature())
					}
					if i > 0 && cus[i-1].Signature() >= cu.Signature() {
						t.Fatalf("%s/%s/pgo=%v: CU %d (%s) does not sort after %s",
							w.Name, instr, pgo, i, cu.Signature(), cus[i-1].Signature())
					}
				}
			}
		}
	}
}

// TestCompiledMethodsShared checks that a Reachability computes its
// compiled-method list once: repeat calls return the same backing array.
func TestCompiledMethodsShared(t *testing.T) {
	w, err := workloads.ByName("Bounce")
	if err != nil {
		t.Fatal(err)
	}
	reach := graal.Analyze(w.Build(), graal.DefaultConfig())
	a, b := reach.CompiledMethods(), reach.CompiledMethods()
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("CompiledMethods recomputed its list")
	}
}
