package textviz

// Terminal rendering of the fleet observatory (`nimage fleet`,
// `nimage-eval -figure fleet`): the per-tenant scorecard straight from
// the nimage.fleet/v1 document, and the interference matrix as a
// who-evicted-whom grid with its partition totals.

import (
	"fmt"
	"strings"
	"time"

	"nimage/internal/obs"
)

// FleetTable renders the per-tenant scorecard: identity, latency, fault
// and residency telemetry, and isolation factors ("-" when no solo
// baseline was measured).
func FleetTable(title string, rep *obs.FleetReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-3s %-12s %-14s %6s %10s %10s %10s %6s %8s %8s %9s %9s %9s\n",
		"id", "workload", "strategy", "quota", "startup", "warm mean", "warm p99",
		"major", "refaults", "evicted", "resident", "iso(lat)", "iso(ref)")
	iso := func(v float64) string {
		if v <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.2fx", v)
	}
	for _, r := range rep.Tenants {
		quota := "-"
		if r.QuotaPages > 0 {
			quota = fmt.Sprintf("%dp", r.QuotaPages)
		}
		fmt.Fprintf(&b, "%-3d %-12s %-14s %6s %10v %10v %10v %6d %8d %8d %9d %9s %9s\n",
			r.Tenant, r.Workload, r.Strategy, quota,
			time.Duration(r.StartupNanos), time.Duration(r.WarmMeanNanos),
			time.Duration(r.WarmP99Nanos),
			r.MajorFaults, r.Refaults, r.EvictedPages, r.ResidentPages,
			iso(r.IsolationLatency), iso(r.IsolationRefault))
	}
	return b.String()
}

// FleetMatrix renders the interference matrix: rows are evictors (the
// tenant whose fault forced the eviction, "ext" for external pressure),
// columns are page owners. Cells partition the total evictions exactly,
// so the grid's margin sums are the per-tenant eviction counts.
func FleetMatrix(evictedBy [][]int64, total int64) string {
	if len(evictedBy) == 0 {
		return ""
	}
	tenants := len(evictedBy) - 1
	var b strings.Builder
	fmt.Fprintf(&b, "Interference matrix (rows evict, columns own; %d evictions total)\n", total)
	fmt.Fprintf(&b, "%-10s", "evictor\\own")
	for j := 0; j < tenants; j++ {
		fmt.Fprintf(&b, " %8s", fmt.Sprintf("t%02d", j))
	}
	fmt.Fprintf(&b, " %8s\n", "row sum")
	rowLabel := func(i int) string {
		if i == 0 {
			return "ext"
		}
		return fmt.Sprintf("t%02d", i-1)
	}
	colSums := make([]int64, tenants)
	for i, row := range evictedBy {
		var rowSum int64
		fmt.Fprintf(&b, "%-10s", rowLabel(i))
		// Column 0 (untenanted files) is omitted: fleet runs own every
		// file, so it is structurally zero.
		for j := 1; j < len(row); j++ {
			fmt.Fprintf(&b, " %8d", row[j])
			rowSum += row[j]
			colSums[j-1] += row[j]
		}
		fmt.Fprintf(&b, " %8d\n", rowSum)
	}
	fmt.Fprintf(&b, "%-10s", "col sum")
	for _, s := range colSums {
		fmt.Fprintf(&b, " %8d", s)
	}
	fmt.Fprintf(&b, "\n")
	return b.String()
}
