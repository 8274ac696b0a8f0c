package ir_test

import (
	"bytes"
	"strconv"
	"testing"

	"nimage/internal/ir"
	"nimage/internal/workloads"
)

// TestSignatureCachedOnEveryWorkload checks the cached method signature on
// every workload program, as built and after a codec round trip: it equals
// the "Class.name(n)" rendering of the method's identity, and a repeat call
// allocates nothing.
func TestSignatureCachedOnEveryWorkload(t *testing.T) {
	for _, w := range append(workloads.All(), workloads.Serve()...) {
		built := w.Build()
		var buf bytes.Buffer
		if err := ir.EncodeProgram(&buf, built); err != nil {
			t.Fatalf("%s: encode: %v", w.Name, err)
		}
		decoded, err := ir.DecodeProgram(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", w.Name, err)
		}
		for _, p := range []struct {
			name string
			prog *ir.Program
		}{{"built", built}, {"decoded", decoded}} {
			methods := p.prog.Methods()
			for _, m := range methods {
				want := m.Class.Name + "." + m.Name + "(" + strconv.Itoa(m.NParams) + ")"
				if got := m.Signature(); got != want {
					t.Fatalf("%s/%s: Signature() = %q, want %q", w.Name, p.name, got, want)
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				for _, m := range methods {
					_ = m.Signature()
				}
			})
			if allocs != 0 {
				t.Errorf("%s/%s: repeat Signature() calls allocate %.1f times per pass over %d methods",
					w.Name, p.name, allocs, len(methods))
			}
		}
	}
}
