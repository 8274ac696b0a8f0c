package textviz

// Terminal rendering of the serve SLO scorecards (`nimage slo`,
// `nimage-eval -figure slo`), straight from the nimage.slo/v1 document.

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"nimage/internal/obs"
)

// sloTargetLabel renders "p99" or "p99.9" from a (0,1) quantile.
func sloTargetLabel(q float64) string {
	return "p" + strconv.FormatFloat(q*100, 'f', -1, 64)
}

// SLOTable renders the attainment scorecard: one line per (workload,
// strategy, pressure, target) with the measured quantile against its
// budget and the error-budget burn.
func SLOTable(title string, rep *obs.SLOReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-12s %-14s %9s %7s %10s %10s %11s %7s %s\n",
		"workload", "strategy", "pressure", "target", "budget", "measured", "violations", "burn", "slo")
	for _, e := range rep.Entries {
		for _, a := range e.Attainments {
			verdict := "MISS"
			if a.Attained {
				verdict = "ok"
			}
			fmt.Fprintf(&b, "%-12s %-14s %8d%% %7s %10v %10v %5d/%-5d %7.2f %s\n",
				e.Workload, e.Strategy, e.PressurePct, sloTargetLabel(a.Quantile),
				time.Duration(a.BudgetNanos), time.Duration(a.MeasuredNanos),
				a.Violations, a.Requests, a.BudgetBurn, verdict)
		}
	}
	return b.String()
}

// SLOOverheadTable renders the observatory's own cost: the wall-clock
// per-request delta between the telemetry-on and telemetry-off control
// runs of the identical scenario.
func SLOOverheadTable(rep *obs.SLOReport) string {
	var b strings.Builder
	b.WriteString("Telemetry overhead (identical scenario, recorder on vs off; wall clock)\n")
	fmt.Fprintf(&b, "%-12s %-14s %12s %12s %9s %s\n",
		"workload", "strategy", "on ns/req", "off ns/req", "overhead", "sim")
	for _, r := range rep.Overhead {
		sim := "DIVERGED"
		if r.SimIdentical {
			sim = "identical"
		}
		fmt.Fprintf(&b, "%-12s %-14s %12.0f %12.0f %8.1f%% %s\n",
			r.Workload, r.Strategy, r.OnWallNanosPerReq, r.OffWallNanosPerReq,
			100*r.OverheadFrac, sim)
	}
	return b.String()
}
