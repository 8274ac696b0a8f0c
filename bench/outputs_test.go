package main

import (
	"flag"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/expected_outputs.json from the plain interpreter")

// TestExpectedOutputs regenerates the expected outputs on the plain
// interpreter and diffs them against the committed file, whose closed-form
// entries it also checks.
func TestExpectedOutputs(t *testing.T) {
	got, err := plainOutputs()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := writeJSON("testdata/expected_outputs.json", got); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name, out := range got {
		if expected[name] != out {
			t.Errorf("%s prints %q, testdata has %q (go test -run TestExpectedOutputs -update rewrites it)", name, out, expected[name])
		}
	}
	if len(expected) != len(got) {
		t.Errorf("testdata has %d programs, the plain interpreter ran %d", len(expected), len(got))
	}
	closed := map[string]string{
		"Permute": "1957\n", "Sieve": "7740\n", "Towers": "10230\n", "Queens": "14\n",
		"micronaut": "helloworld\n", "quarkus": "helloworld\n", "spring": "helloworld\n",
	}
	for name, out := range closed {
		if got[name] != out {
			t.Errorf("%s prints %q, want %q", name, got[name], out)
		}
	}
}
