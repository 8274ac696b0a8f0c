package textviz

import (
	"strings"
	"testing"

	"nimage/internal/eval"
)

func TestBurstTable(t *testing.T) {
	rows := []eval.BurstMeasure{
		{Burst: 0, Requests: 8, P50Nanos: 1500, P99Nanos: 90000, MajorFaults: 12, MinorFaults: 30, ResidentText: 40, ResidentHeap: 10},
		{Burst: 1, Requests: 8, P50Nanos: 1200, P99Nanos: 45000, MajorFaults: 3, MinorFaults: 2, Refaults: 3, EvictedPages: 25, ResidentText: 30, ResidentHeap: 8},
	}
	out := BurstTable("serve-api (identity layout)", rows)
	for _, want := range []string{
		"serve-api (identity layout)",
		"p50", "p99", "refaults", "evicted", "res.text", "res.heap",
		"0*", "cold burst",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 5 {
		t.Errorf("got %d lines, want 5:\n%s", lines, out)
	}
}

func TestBurstTableEmpty(t *testing.T) {
	out := BurstTable("t", nil)
	if strings.Contains(out, "cold burst") {
		t.Errorf("empty table renders footnote:\n%s", out)
	}
}
