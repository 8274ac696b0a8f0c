package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"nimage/internal/heap"
	"nimage/internal/vm"
	"nimage/internal/workloads"
)

// expectedJSON holds each cold-started program's printed output as the
// plain interpreter produces it (see plainOutputs). The closed forms
// check it independently of the interpreter: Permute prints 1957, Sieve
// 7740 = 18 × 430 primes below 3000, Towers 10230 = 10 × (2^10 − 1) moves,
// Queens 14 solved boards, and each microservice "helloworld".
//
//go:embed testdata/expected_outputs.json
var expectedJSON []byte

// expected maps each program to its expected output. The file is part of
// the binary, so failing to parse it is a build defect.
var expected = func() map[string]string {
	var m map[string]string
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		panic(fmt.Sprintf("testdata/expected_outputs.json: %v", err))
	}
	return m
}()

// plainOutputs runs every program the benchmark cold-starts on the plain
// interpreter — no image, no layout, class initializers run on first use —
// and returns what each prints.
func plainOutputs() (map[string]string, error) {
	out := make(map[string]string)
	for _, w := range workloads.All() {
		var b strings.Builder
		m := vm.New(w.Build())
		m.AutoClinit = true
		m.StopOnRespond = w.Service
		m.Hooks.OnPrint = func(_ int, v heap.Value) { writeValue(&b, v) }
		if err := m.RunProgram(w.Args...); err != nil {
			return nil, fmt.Errorf("plain run of %s: %w", w.Name, err)
		}
		out[w.Name] = b.String()
	}
	return out, nil
}

// writeValue appends one printed value and a newline: numbers in decimal,
// strings as their contents, other objects by type name.
func writeValue(b *strings.Builder, v heap.Value) {
	switch {
	case v.Kind == heap.VInt:
		b.WriteString(strconv.FormatInt(v.Bits, 10))
	case v.Kind == heap.VFloat:
		b.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case v.IsNull():
		b.WriteString("null")
	case v.Ref.IsString():
		b.WriteString(v.Ref.Str)
	default:
		b.WriteString(v.Ref.TypeName())
	}
	b.WriteByte('\n')
}
