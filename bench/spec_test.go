package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkDoc is the layout of the repository's BENCHMARK.json.
type benchmarkDoc struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const benchmarkJSON = "../BENCHMARK.json"

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program reports (-update rewrites it).
func TestBenchmarkJSON(t *testing.T) {
	want := benchmarkDoc{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, s := range workloadSpecs {
		want.Workloads = append(want.Workloads, workloadDoc{Name: s.name, Why: s.why})
	}
	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	wantJSON = append(wantJSON, '\n')
	if *update {
		if err := os.WriteFile(benchmarkJSON, wantJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSON) {
		t.Errorf("%s differs from the program's definitions (go test -run TestBenchmarkJSON -update rewrites it)", benchmarkJSON)
	}
	if len(got) > 64<<10 {
		t.Errorf("%s is %d bytes, the limit is 64 KiB", benchmarkJSON, len(got))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	names := map[string]bool{}
	for _, w := range want.Workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: malformed name or why", w.Name)
		}
		names[w.Name] = true
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if names[m.Name] || !nameRE.MatchString(m.Name) {
			t.Errorf("metric %q malformed or its name used twice", m.Name)
		}
		names[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: malformed unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	var setupBound, maxBound float64
	for _, m := range endToEnd {
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g, want the largest bound %g", setupBound, maxBound)
	}
}
