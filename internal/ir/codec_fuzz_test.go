package ir

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
)

// putUvarints renders a byte sequence from varints (fuzz-input builder).
func putUvarints(prefix []byte, vs ...uint64) []byte {
	out := append([]byte{}, prefix...)
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range vs {
		n := binary.PutUvarint(tmp[:], v)
		out = append(out, tmp[:n]...)
	}
	return out
}

// TestDecodeProgramRejectsHostileInput covers the alloc-bomb and
// recursion paths hardened against fuzzer findings: declared counts far
// beyond the bytes present, and unbounded array-type nesting; registers
// outside the 16-bit fields of Instr and Term; and block targets and
// argument registers outside int32.
func TestDecodeProgramRejectsHostileInput(t *testing.T) {
	head := []byte(progMagic)
	head = putUvarints(head, progVersion)

	// Deeply nested array type: version, empty string table, name/entry
	// strings would come next — instead feed a huge KArray chain through a
	// program with one class and one field.
	deepType := putUvarints(nil)
	for i := 0; i < 2*maxTypeDepth; i++ {
		deepType = putUvarints(deepType, uint64(KArray))
	}

	type hostile struct {
		data    []byte
		wantErr string
	}
	cases := map[string]hostile{
		"huge-string-table": {putUvarints(head, 1<<40), "implausible string-table count"},
		// Declares maxCount strings with no bytes behind them: must fail
		// from missing input, not allocate the declared table.
		"declared-strings-not-present": {putUvarints(head, maxCount), "EOF"},
		"huge-resource-size": {putUvarints(head,
			1, 1, 'x', // one 1-byte string "x"
			0, 0, 0, // name, entry class, entry method
			1,     // one resource
			0,     // resource name
			1<<40, // resource size
		), "implausible resource size"},
		"deep-array-type": {append(putUvarints(head,
			1, 1, 'x', // string table: "x"
			0, 0, 0, // name, entry
			0,    // no resources
			1,    // one class
			0, 0, // class name, super
			1, // one field
			0, // field name
		), deepType...), "type nesting exceeds"},
		"huge-param-count": {putUvarints(head,
			1, 1, 'x',
			0, 0, 0,
			0,    // no resources
			1,    // one class
			0, 0, // name, super
			0, 0, // no fields, no statics
			1,     // one method
			0,     // method name
			0,     // flags
			1<<40, // NParams
		), "implausible parameter count"},
	}
	// A static void method A.f with 4 registers and one block, which holds
	// the instructions encoded by instrs and ends in the terminator term.
	oneBlock := func(term [5]uint64, ninstr uint64, instrs ...uint64) []byte {
		data := putUvarints(head,
			4, 0, 1, 'A', 1, 'f', 5, 'p', 'r', 'i', 'n', 't', // "", "A", "f", "print"
			0, 1, 2, // name, entry class, entry method
			0,    // no resources
			1,    // one class
			1, 0, // name "A", no super
			0, 0, // no fields, no statics
			1, // one method
			2, // name "f"
			1, // static
			0, // NParams
			uint64(KVoid),
			4, // NumRegs
			1, // one block
			ninstr,
		)
		data = putUvarints(data, instrs...)
		return putUvarints(data, term[:]...)
	}
	// zigzag encodes a signed varint operand.
	zigzag := func(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }
	retVoid := [5]uint64{uint64(TermReturn), 0, 0, 0, zigzag(-1)}
	oneInstr := func(instr ...uint64) []byte { return oneBlock(retVoid, 1, instr...) }
	// constInto encodes const.i with registers a, b and c.
	constInto := func(a, b, c int64) []byte {
		return oneInstr(uint64(OpConstInt), zigzag(a), zigzag(b), zigzag(c), 0, 0, 0, uint64(KInt), 0)
	}
	printArg := func(r int64) []byte {
		return oneInstr(uint64(OpIntrinsic), zigzag(-1), 0, 0, 0, 3, 0, uint64(KInt), 1, zigzag(r))
	}
	// ifOn encodes a block that branches on register cond to blocks then
	// and els; ret encodes one that returns register r.
	ifOn := func(cond, then, els int64) []byte {
		return oneBlock([5]uint64{uint64(TermIf), zigzag(cond), zigzag(then), zigzag(els), zigzag(-1)}, 0)
	}
	ret := func(r int64) []byte {
		return oneBlock([5]uint64{uint64(TermReturn), 0, 0, 0, zigzag(r)}, 0)
	}
	for name, data := range map[string][]byte{
		"register": constInto(3, 0, 0), "argument": printArg(3),
		"if": ifOn(3, 0, 0),
	} {
		if _, err := DecodeProgram(bytes.NewReader(data)); err != nil {
			t.Fatalf("%s: the valid form of the register cases does not decode: %v", name, err)
		}
	}
	// A register field holds [NoReg, MaxRegs) in 16 bits, and a block
	// target an int32. Anything else must be rejected, not truncated:
	// 65536 would wrap into register 0, 65535 into NoReg, and 2^32+3 into
	// register 3; the target 2^32 would wrap into block 0.
	const wraps = 1<<32 + 3
	const badReg = "outside [-1, 65535)"
	for _, r := range []int64{-2, MaxRegs, MaxRegs + 1, wraps, -wraps} {
		cases[fmt.Sprintf("register-A-%d", r)] = hostile{constInto(r, 0, 0), badReg}
		cases[fmt.Sprintf("register-B-%d", r)] = hostile{constInto(0, r, 0), badReg}
		cases[fmt.Sprintf("register-C-%d", r)] = hostile{constInto(0, 0, r), badReg}
		cases[fmt.Sprintf("term-cond-%d", r)] = hostile{ifOn(r, 0, 0), badReg}
		cases[fmt.Sprintf("term-ret-%d", r)] = hostile{ret(r), badReg}
	}
	for _, b := range []int64{1 << 32, -(1 << 32), math.MaxInt32 + 1} {
		cases[fmt.Sprintf("term-then-%d", b)] = hostile{ifOn(0, b, 0), "outside the int32 range"}
		cases[fmt.Sprintf("term-else-%d", b)] = hostile{ifOn(0, 0, b), "outside the int32 range"}
	}
	cases["argument-beyond-int32"] = hostile{printArg(wraps), "outside the int32 range"}

	for name, tc := range cases {
		_, err := DecodeProgram(bytes.NewReader(tc.data))
		if err == nil {
			t.Errorf("%s: hostile input accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", name, err, tc.wantErr)
		}
	}
}

// FuzzIRCodec asserts the program decoder never panics, and that any
// program it accepts re-encodes canonically: encode(decode(data)) must be
// a fixed point of a further decode/encode round trip.
func FuzzIRCodec(f *testing.F) {
	var seed bytes.Buffer
	if err := EncodeProgram(&seed, buildCodecProgram(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:16])
	f.Add([]byte(progMagic))
	f.Add(putUvarints([]byte(progMagic), progVersion, 0, 0, 0, 0, 0, 0))
	corrupt := append([]byte{}, seed.Bytes()...)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProgram(bytes.NewReader(data))
		if err != nil {
			return
		}
		var b1 bytes.Buffer
		if err := EncodeProgram(&b1, p); err != nil {
			t.Fatalf("re-encoding accepted program: %v", err)
		}
		p2, err := DecodeProgram(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		var b2 bytes.Buffer
		if err := EncodeProgram(&b2, p2); err != nil {
			t.Fatalf("re-encoding round-tripped program: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatal("encoding is not canonical under round trip")
		}
	})
}
