package textviz

// Terminal rendering of serve-mode burst telemetry (`nimage serve`).

import (
	"fmt"
	"strings"
	"time"

	"nimage/internal/eval"
)

// BurstTable renders the per-burst telemetry of one serve run.
func BurstTable(title string, rows []eval.BurstMeasure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%5s %5s %10s %10s %6s %6s %8s %8s %9s %9s\n",
		"burst", "reqs", "p50", "p99", "major", "minor", "refaults", "evicted", "res.text", "res.heap")
	for _, r := range rows {
		label := fmt.Sprintf("%d", r.Burst)
		if r.Burst == 0 {
			label = "0*"
		}
		fmt.Fprintf(&b, "%5s %5d %10v %10v %6d %6d %8d %8d %9d %9d\n",
			label, r.Requests,
			time.Duration(r.P50Nanos), time.Duration(r.P99Nanos),
			r.MajorFaults, r.MinorFaults, r.Refaults, r.EvictedPages,
			r.ResidentText, r.ResidentHeap)
	}
	if len(rows) > 0 {
		b.WriteString("  (* cold burst — excluded from warm aggregates)\n")
	}
	return b.String()
}
