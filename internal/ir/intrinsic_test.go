package ir

import (
	"fmt"
	"strings"
	"testing"
)

// TestIntrinsicTable: every known intrinsic is found by its name, builds
// at its arity, and fails Build with a defined error at any other count,
// instead of reaching the interpreter with too few argument registers.
func TestIntrinsicTable(t *testing.T) {
	for id := IntrPrint; id < numIntrinsics; id++ {
		name := id.Name()
		if got := LookupIntrinsic(name); got != id {
			t.Errorf("LookupIntrinsic(%q) = %d, want %d", name, got, id)
		}
		in := Instr{Op: OpIntrinsic, Operand: &Operand{Sym: name}}
		if in.HasDest() != id.HasDest() {
			t.Errorf("%s: Instr.HasDest %v, table %v", name, in.HasDest(), id.HasDest())
		}
		for n := 0; n <= 3; n++ {
			b := NewBuilder("intrinsics")
			e := b.Class("A").StaticMethod("f", 0, Void()).Entry()
			args := make([]Reg, n)
			for i := range args {
				args[i] = e.ConstInt(int64(i))
			}
			if id.HasDest() {
				e.Intrinsic(name, args...)
			} else {
				e.IntrinsicVoid(name, args...)
			}
			e.RetVoid()
			_, err := b.Build()
			switch want := id.Arity(); {
			case want < 0 || n == want:
				if err != nil {
					t.Errorf("%s with %d args: %v", name, n, err)
				}
			default:
				msg := fmt.Sprintf("intrinsic %s with %d args, want %d", name, n, want)
				if err == nil || !strings.Contains(err.Error(), msg) {
					t.Errorf("%s with %d args: err = %v, want containing %q", name, n, err, msg)
				}
			}
		}
	}
	if IntrSpawn.Arity() != -1 {
		t.Errorf("spawn arity %d, want any (-1)", IntrSpawn.Arity())
	}
	if id := LookupIntrinsic("nope"); id != IntrUnknown || id.Arity() != -1 || !id.HasDest() {
		t.Errorf("unknown intrinsic: id %d arity %d dest %v", id, id.Arity(), id.HasDest())
	}
}

// TestRegisterFileBounded: Resolve rejects a register file wider than
// MaxRegs.
func TestRegisterFileBounded(t *testing.T) {
	b := NewBuilder("wide")
	mb := b.Class("A").StaticMethod("f", 0, Void())
	mb.Entry().RetVoid()
	mb.Method().NumRegs = MaxRegs + 1
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "NumRegs") {
		t.Errorf("Build err = %v, want a NumRegs bound error", err)
	}
}
