package main

// The SLO-driven layout search's CLI: run the budget-bounded rebake
// loop on one serve workload, print the full search trajectory (every
// candidate, its static prediction, its measured scorecard, the
// accept/reject verdict), and optionally dump the nimage.search/v1
// journal.

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"nimage"
)

// validateTuneFlags rejects out-of-range search knobs up front — same
// reject-don't-clamp discipline as the serve and SLO flags.
func validateTuneFlags(budgetIters, topK int, pressures string) ([]int, error) {
	if budgetIters < 1 || budgetIters > 4096 {
		return nil, fmt.Errorf("-budget-iters must be between 1 and 4096 (search iterations after the seed round), got %d", budgetIters)
	}
	if topK < 1 || topK > 1024 {
		return nil, fmt.Errorf("-top-k must be between 1 and 1024 (candidates promoted to full measurement per iteration), got %d", topK)
	}
	if strings.TrimSpace(pressures) == "" {
		return nimage.DefaultSearchConfig().Pressures, nil
	}
	var out []int
	for _, t := range strings.Split(pressures, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(t))
		if err != nil || p < 0 || p > 100 {
			return nil, fmt.Errorf("-pressures terms must be percentages between 0 and 100, got %q", t)
		}
		out = append(out, p)
	}
	return out, nil
}

// cmdTune runs the SLO-driven layout search on one serve workload.
func cmdTune(args []string) error {
	fs := flag.NewFlagSet("tune", flag.ExitOnError)
	name := fs.String("workload", "serve-api", "serve workload to search")
	budgetIters := fs.Int("budget-iters", 2, "search iterations after the seed round")
	topK := fs.Int("top-k", 2, "candidates promoted to full serve measurement per iteration")
	seed := fs.Uint64("seed", 0, "perturbation seed (0 = default)")
	pressures := fs.String("pressures", "", "comma-separated sweep pressure levels in percent (empty = 30,70)")
	slo := fs.String("slo", "", "SLO targets as p<quantile>=<duration> terms, e.g. p50=100us,p99=2ms (empty = defaults)")
	out := fs.String("o", "", "write the nimage.search/v1 journal to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	plist, err := validateTuneFlags(*budgetIters, *topK, *pressures)
	if err != nil {
		return err
	}
	var targets []nimage.SLOTarget
	if *slo != "" {
		targets, err = nimage.ParseSLOTargets(*slo)
		if err != nil {
			return err
		}
	}
	w, err := nimage.WorkloadByName(*name)
	if err != nil {
		return err
	}
	if w.Serve == nil {
		return fmt.Errorf("workload %q has no serve spec; -workload must name a serve workload (see 'nimage info')", *name)
	}

	cfg := nimage.DefaultEvalConfig()
	cfg.Builds = 1
	scfg := nimage.DefaultSearchConfig()
	scfg.BudgetIters = *budgetIters
	scfg.TopK = *topK
	scfg.Seed = *seed
	scfg.Pressures = plist
	if targets != nil {
		scfg.Targets = targets
	}

	h := nimage.NewHarness(cfg)
	res, err := h.SearchLayout(w, scfg)
	if err != nil {
		return err
	}

	rep := res.Journal
	title := fmt.Sprintf("Layout search (%s, seed %#x, %d iterations, top-%d, pressures %v)",
		rep.Workload, rep.Seed, rep.BudgetIters, rep.TopK, rep.Pressures)
	fmt.Print(nimage.SearchTableText(title, rep))
	fmt.Println()
	fmt.Printf("winner: %s (%d symbols, digest %s)\n",
		rep.Final.Candidate, rep.Final.Symbols, rep.Final.OrderDigest)
	fmt.Printf("  attained %d/%d SLO cells, refault-factor geomean %.3f, budget burn %.3f\n",
		rep.Final.Attained, rep.Final.Targets, rep.Final.RefaultGeomean, rep.Final.BudgetBurn)

	if *out != "" {
		if err := writeWith(*out, func(f *os.File) error { return nimage.WriteSearchReport(f, rep) }); err != nil {
			return err
		}
		fmt.Printf("wrote search journal to %s\n", *out)
	}
	return nil
}
