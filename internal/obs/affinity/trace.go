package affinity

// Chrome trace-event export: the co-residency window log as a trace
// chrome://tracing and Perfetto load directly. The time axis is the OS
// logical access clock (rendered as microseconds). Each window's distinct
// symbols become stacked duration events — lane i carries the i-th
// distinct symbol of each window, so the occupied lane depth reads as
// the working-set width over time — plus a counter track with the
// window's symbol count.

import (
	"fmt"
	"io"

	"nimage/internal/obs"
)

const (
	counterTid = obs.ChromeTid0
	laneTid0   = counterTid + 1
)

// WriteChromeTrace writes the graph's window log as Chrome trace-event
// JSON: a "window symbols" counter track plus co-residency lanes.
func WriteChromeTrace(w io.Writer, g *Graph) error {
	proc := "nimage affinity"
	if g.Workload != "" {
		proc = fmt.Sprintf("nimage affinity %s (%s)", g.Workload, g.Layout)
	}
	tr := obs.NewChromeTrace(proc)
	tr.Thread(counterTid, "window symbols")
	maxDepth := 0
	for wi, win := range g.WindowLog {
		ts := float64(win.Start)
		end := ts + float64(win.Events)
		if wi+1 < len(g.WindowLog) && float64(g.WindowLog[wi+1].Start) > ts {
			end = float64(g.WindowLog[wi+1].Start)
		}
		tr.Add(obs.ChromeEvent{
			Name: "window symbols", Ph: "C", Cat: "coresidency",
			Ts: ts, Tid: counterTid,
			Args: map[string]any{"symbols": len(win.Nodes)},
		})
		for depth, id := range win.Nodes {
			if int(id) >= len(g.Nodes) {
				continue
			}
			n := g.Nodes[id]
			if depth+1 > maxDepth {
				maxDepth = depth + 1
			}
			tr.Add(obs.ChromeEvent{
				Name: n.Name, Ph: "X", Cat: "coresidency",
				Ts: ts, Dur: end - ts, Tid: laneTid0 + depth,
				Args: map[string]any{"kind": n.Kind, "section": n.Section},
			})
		}
	}
	for d := 0; d < maxDepth; d++ {
		tr.Thread(laneTid0+d, fmt.Sprintf("co-resident %02d", d))
	}
	return tr.Write(w)
}
