package obs

// JSON document codec, shared by every schema-versioned document the
// toolchain writes: attribution tables, affinity graphs, request traces,
// fleet reports, eval reports and verify reports. There is one canonical
// encoding, and one decode path that rejects foreign schemas and runs the
// document's structural validator before any consumer walks it.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// WriteDoc encodes v as one two-space-indented JSON document followed by
// a newline (struct field order, so the bytes are deterministic).
func WriteDoc(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("obs: encoding %T: %w", v, err)
	}
	return nil
}

// ReadDoc decodes one JSON document into a T, rejects it unless its
// schema (read by schemaOf) equals schema, then runs validate (nil: no
// structural checks). Errors start with "<pkg>: " and name the document
// by noun, e.g. "affinity: decoding graph: ...".
func ReadDoc[T any](r io.Reader, pkg, noun, schema string, schemaOf func(*T) string, validate func(*T) error) (*T, error) {
	var v T
	if err := json.NewDecoder(r).Decode(&v); err != nil {
		return nil, fmt.Errorf("%s: decoding %s: %w", pkg, noun, err)
	}
	if got := schemaOf(&v); got != schema {
		return nil, fmt.Errorf("%s: unsupported schema %q for %s (want %q)", pkg, got, noun, schema)
	}
	if validate != nil {
		if err := validate(&v); err != nil {
			return nil, fmt.Errorf("%s: invalid %s: %w", pkg, noun, err)
		}
	}
	return &v, nil
}

// finiteNonNeg is the validators' check for a decoded time or ratio.
func finiteNonNeg(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}
