package ir_test

import (
	"testing"
	"unsafe"

	"nimage/internal/ir"
)

// TestBlocksStoredAtExactSize: after Build, every block's Instrs is full
// (cap == len), and the non-empty blocks of a method lie back to back in
// one backing array, on every workload program.
func TestBlocksStoredAtExactSize(t *testing.T) {
	size := unsafe.Sizeof(ir.Instr{})
	for _, p := range everyProgram() {
		instrs := 0
		for _, m := range p.Methods() {
			var end unsafe.Pointer
			for _, blk := range m.Blocks {
				if cap(blk.Instrs) != len(blk.Instrs) {
					t.Fatalf("%s: %s block %d: cap %d, len %d",
						p.Name, m.Signature(), blk.Index, cap(blk.Instrs), len(blk.Instrs))
				}
				if len(blk.Instrs) == 0 {
					continue
				}
				start := unsafe.Pointer(&blk.Instrs[0])
				if end != nil && start != end {
					t.Fatalf("%s: %s block %d does not follow the previous block in one array",
						p.Name, m.Signature(), blk.Index)
				}
				end = unsafe.Add(start, uintptr(len(blk.Instrs))*size)
				instrs += len(blk.Instrs)
			}
		}
		if instrs == 0 {
			t.Errorf("%s: no instructions", p.Name)
		}
	}
}
