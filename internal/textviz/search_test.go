package textviz

import (
	"strings"
	"testing"

	"nimage/internal/obs"
)

func TestSearchTable(t *testing.T) {
	out := SearchTable("Layout search (serve-api)", &obs.SearchReport{Iterations: []obs.SearchIteration{
		{Iter: 0, Candidates: []obs.SearchCandidateRecord{
			{ID: "c3", Op: "seed", PredictedRefaults: 120,
				Promoted: true, Attained: 7, Targets: 8, RefaultGeomean: 1.701,
				Accepted: true, Reason: "best seed scorecard"}}},
		{Iter: 1, Candidates: []obs.SearchCandidateRecord{
			{ID: "perturb/i1/k0/swap", Op: "perturb",
				PredictedRefaults: 110, Promoted: true, Attained: 8, Targets: 8,
				RefaultGeomean: 1.8, Accepted: false,
				Reason: "no strict improvement over incumbent"},
			{ID: "c3/limit=4096", Op: "c3-sweep",
				PredictedRefaults: 200, Reason: "below promotion cut"}}},
	}})
	for _, want := range []string{
		"Layout search (serve-api)",
		"c3", "perturb/i1/k0/swap", "c3/limit=4096",
		"7/8", "8/8", "1.701", "1.800",
		"ACCEPT", "reject", "cut",
		"best seed scorecard", "below promotion cut",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// Unpromoted candidates must not fake a scorecard.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "below promotion cut") && !strings.Contains(line, "-") {
			t.Errorf("cut candidate rendered a measured score:\n%s", line)
		}
	}
}

func TestSearchTableEmpty(t *testing.T) {
	out := SearchTable("empty", &obs.SearchReport{})
	if !strings.Contains(out, "empty") || !strings.Contains(out, "candidate") {
		t.Errorf("empty table lost title or header:\n%s", out)
	}
}
