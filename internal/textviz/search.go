package textviz

// Terminal rendering of the SLO-driven layout-search trajectory
// (`nimage tune`, `nimage-eval -figure search`), straight from the
// nimage.search/v1 journal.

import (
	"fmt"
	"strings"

	"nimage/internal/obs"
)

// SearchTable renders the search journal: one line per candidate per
// iteration, with the static prediction, the measured scorecard for
// promoted candidates, and the accept/reject reason.
func SearchTable(title string, rep *obs.SearchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%4s %-22s %-13s %10s %9s %8s %8s %-8s %s\n",
		"iter", "candidate", "op", "refaults", "attained", "geomean", "verdict", "", "reason")
	for _, it := range rep.Iterations {
		for _, c := range it.Candidates {
			attained, geomean := "-", "-"
			if c.Promoted {
				attained = fmt.Sprintf("%d/%d", c.Attained, c.Targets)
				geomean = fmt.Sprintf("%.3f", c.RefaultGeomean)
			}
			verdict := "reject"
			if c.Accepted {
				verdict = "ACCEPT"
			} else if !c.Promoted {
				verdict = "cut"
			}
			fmt.Fprintf(&b, "%4d %-22s %-13s %10d %9s %8s %8s %-8s %s\n",
				it.Iter, c.ID, c.Op, c.PredictedRefaults,
				attained, geomean, verdict, "", c.Reason)
		}
	}
	return b.String()
}
