package ir_test

import (
	"bytes"
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

// TestInstrSize pins the resident IR records: the instruction at 24 bytes
// (the opcode and three 16-bit registers in one word, the literal and the
// Operand pointer), the terminator at 16, the block at 48 and the operand
// at 88. Every program holds these resident, so a field added here costs
// on all of them.
func TestInstrSize(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"ir.Instr", unsafe.Sizeof(ir.Instr{}), 24},
		{"ir.Term", unsafe.Sizeof(ir.Term{}), 16},
		{"ir.Block", unsafe.Sizeof(ir.Block{}), 48},
		{"ir.Operand", unsafe.Sizeof(ir.Operand{}), 88},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s{}) = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestOperandsFollowOpcodes: on every workload program, built and after a
// codec round trip, an instruction carries an Operand exactly when its
// opcode has operands, and a Type exactly when it allocates.
func TestOperandsFollowOpcodes(t *testing.T) {
	for _, p := range everyProgram() {
		var buf bytes.Buffer
		if err := ir.EncodeProgram(&buf, p); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		q, err := ir.DecodeProgram(&buf)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, prog := range []struct {
			how string
			p   *ir.Program
		}{{"built", p}, {"decoded", q}} {
			with := 0
			for _, m := range prog.p.Methods() {
				for _, blk := range m.Blocks {
					for i := range blk.Instrs {
						in := &blk.Instrs[i]
						if (in.Operand != nil) != in.Op.HasOperand() {
							t.Fatalf("%s %s: %s block %d instr %d (%s): has Operand %v",
								prog.how, p.Name, m.Signature(), blk.Index, i, in.Op, in.Operand != nil)
						}
						if in.Operand != nil {
							with++
							if (in.Type != nil) != in.Op.HasType() {
								t.Fatalf("%s %s: %s block %d instr %d (%s): has Type %v",
									prog.how, p.Name, m.Signature(), blk.Index, i, in.Op, in.Type != nil)
							}
						}
					}
				}
			}
			if with == 0 {
				t.Errorf("%s %s: no instruction has an Operand", prog.how, p.Name)
			}
		}
	}
}
