package ir

import (
	"bytes"
	"encoding/binary"
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
// beyond the bytes present, and unbounded array-type nesting; and
// registers outside the int32 range of Instr.
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
	// A static void method A.f with 4 registers whose one block holds
	// the instruction encoded by instr and returns.
	oneInstr := func(instr ...uint64) []byte {
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
			1, // one instruction
		)
		data = putUvarints(data, instr...)
		return putUvarints(data, uint64(TermReturn), 0, 0, 0, 1) // ret (Ret -1)
	}
	// zigzag encodes a signed varint operand.
	zigzag := func(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }
	// Registers beyond int32 must be rejected, not truncated: 2^32+3
	// would wrap into the valid register 3.
	const wraps = 1<<32 + 3
	constInto := func(r int64) []byte {
		return oneInstr(uint64(OpConstInt), zigzag(r), 0, 0, 0, 0, 0, uint64(KInt), 0)
	}
	printArg := func(r int64) []byte {
		return oneInstr(uint64(OpIntrinsic), zigzag(-1), 0, 0, 0, 3, 0, uint64(KInt), 1, zigzag(r))
	}
	for name, data := range map[string][]byte{"register": constInto(3), "argument": printArg(3)} {
		if _, err := DecodeProgram(bytes.NewReader(data)); err != nil {
			t.Fatalf("%s 3: the valid form of the int32 cases does not decode: %v", name, err)
		}
	}
	cases["register-beyond-int32"] = hostile{constInto(wraps), "outside the int32 range"}
	cases["negative-register-beyond-int32"] = hostile{constInto(-wraps), "outside the int32 range"}
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
