package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nimage"
)

// cmdAffinity records the temporal co-access affinity graph of a serve
// run and prints the ranked top-edge table plus the layout scorecard.
// With -diff, it instead scores every strategy's layout against the
// baseline recording and ranks them by predicted refault factor.
func cmdAffinity(args []string) error {
	fs := flag.NewFlagSet("affinity", flag.ExitOnError)
	name := fs.String("workload", "serve-api", "serve workload: serve-api|serve-cache")
	strategy := fs.String("strategy", "", "record under this layout (empty = regular build)")
	strategies := fs.String("strategies", "", "comma-separated strategies for -diff (empty = serve strategies)")
	device := fs.String("device", "ssd", "storage device: ssd|nfs")
	bursts := fs.Int("bursts", 5, "request bursts after startup (burst 0 is cold)")
	burst := fs.Int("burst", 24, "requests per burst")
	pressure := fs.Int("pressure", 50, "percent of resident pages reclaimed between bursts")
	budget := fs.Int("budget", 0, "resident-page budget in pages (0 = unlimited)")
	hotPct := fs.Int("hot-pct", 80, "percent of requests hitting the hot routes")
	hotRoutes := fs.Int("hot-routes", 4, "size of the hot route set")
	seed := fs.Uint64("seed", 0, "request-stream seed (0 = default)")
	top := fs.Int("top", 20, "edges to print (0 = all)")
	out := fs.String("o", "", "write the affinity graph to this JSON file (nimage.affinity/v1)")
	dotOut := fs.String("dot", "", "write a GraphViz DOT rendering of the top edges here")
	traceOut := fs.String("trace", "", "write a Chrome trace-event co-residency track here")
	diff := fs.Bool("diff", false, "score every strategy's layout against the baseline recording")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := nimage.WorkloadByName(*name)
	if err != nil {
		return err
	}
	if err := validateServeFlags(*pressure, *hotPct, *bursts, *burst, *budget); err != nil {
		return err
	}
	dev, err := nimage.DeviceByName(*device)
	if err != nil {
		return err
	}

	cfg := nimage.DefaultEvalConfig()
	cfg.Builds = 1
	cfg.TrackAffinity = true
	cfg.Device = dev
	scfg := nimage.ServeConfig{
		Bursts:      *bursts,
		BurstSize:   *burst,
		PressurePct: *pressure,
		CacheBudget: *budget,
		HotPct:      *hotPct,
		HotRoutes:   *hotRoutes,
		Seed:        *seed,
	}
	h := nimage.NewHarness(cfg)

	var g *nimage.AffinityGraph
	if *diff {
		strats := nimage.ServeStrategies()
		if *strategies != "" {
			strats = nil
			for _, s := range strings.Split(*strategies, ",") {
				strats = append(strats, strings.TrimSpace(s))
			}
		}
		base, cards, err := h.AffinityScorecards(w, scfg, strats)
		if err != nil {
			return err
		}
		g = base
		fmt.Printf("%s: baseline recording scored against %d layouts\n", w.Name, len(cards))
		fmt.Print(nimage.ScorecardTableText(cards))
		// The strongest edge shifts between the baseline recording and
		// each strategy's own recording.
		for _, s := range strats {
			outs, err := h.MeasureServe(w, s, scfg)
			if err != nil {
				return err
			}
			var graphs []*nimage.AffinityGraph
			for _, o := range outs {
				if o.Affinity != nil {
					graphs = append(graphs, o.Affinity)
				}
			}
			if len(graphs) == 0 {
				continue
			}
			fmt.Println()
			fmt.Print(nimage.AffinityDiffText(g, nimage.MergeAffinityGraphs(graphs...), *top))
		}
	} else {
		outs, err := h.MeasureServe(w, *strategy, scfg)
		if err != nil {
			return err
		}
		var graphs []*nimage.AffinityGraph
		var cards []*nimage.AffinityScorecard
		for _, o := range outs {
			if o.Affinity != nil {
				graphs = append(graphs, o.Affinity)
			}
			if o.Scorecard != nil {
				cards = append(cards, o.Scorecard)
			}
		}
		if len(graphs) == 0 {
			return fmt.Errorf("no affinity graph recorded")
		}
		g = nimage.MergeAffinityGraphs(graphs...)
		fmt.Print(nimage.AffinityTableText(g, *top))
		if len(cards) > 0 {
			fmt.Println()
			fmt.Print(nimage.ScorecardTableText(cards))
		}
	}

	if *out != "" {
		if err := writeWith(*out, func(f *os.File) error { return nimage.WriteAffinityGraph(f, g) }); err != nil {
			return err
		}
		fmt.Printf("wrote affinity graph to %s\n", *out)
	}
	if *dotOut != "" {
		if err := writeWith(*dotOut, func(f *os.File) error { return nimage.WriteAffinityDOT(f, g, *top) }); err != nil {
			return err
		}
		fmt.Printf("wrote GraphViz DOT to %s (dot -Tsvg %s)\n", *dotOut, *dotOut)
	}
	if *traceOut != "" {
		if err := writeWith(*traceOut, func(f *os.File) error { return nimage.WriteAffinityTrace(f, g) }); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace to %s\n", *traceOut)
	}
	return nil
}
