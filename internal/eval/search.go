package eval

// SLO-driven layout search: a budget-bounded iterative rebake loop that
// treats text layout as an optimization problem scored by the serve
// attainment scorecard. The seed layouts (c3, ext-tsp) are measured
// first; each iteration then generates candidate orderings — parameter
// sweeps of the chain orderers plus seeded local perturbations of the
// incumbent — scores all of them cheaply with the static affinity
// replay, promotes only the top-k to full serve measurement, and accepts
// a candidate only when its measured scorecard strictly improves
// (attained targets first, refault-factor geomean second, budget burn
// third). The whole trajectory is journaled into a nimage.search/v1
// document.
//
// Determinism: the loop runs serially inside one singleflight slot —
// candidate generation, promotion ranking and acceptance are pure
// functions of the recorded graph and the config seed, and every serve
// measurement is the bit-deterministic simulated protocol — so the full
// trajectory (journal bytes included) is identical across -workers
// counts, repeats and platforms. Scheduler note: SearchLayout is reached
// from inside serveImage's singleflight (itself inside a MeasureServe
// worker task), so it must never fan work out through the pool — only
// direct runServe/BuildOptimized calls and nested once() — or a
// Workers=1 pool would deadlock on the nested-task rule (scheduler.go).

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"nimage/internal/core"
	"nimage/internal/image"
	"nimage/internal/obs"
	"nimage/internal/workloads"
)

// SearchConfig tunes one layout search.
type SearchConfig struct {
	// BudgetIters is the number of search iterations after the seed
	// round; TopK the number of candidates promoted to full serve
	// measurement per iteration; PerturbPerIter the seeded local
	// perturbations generated per iteration.
	BudgetIters    int
	TopK           int
	PerturbPerIter int
	// Seed drives the perturbation draws.
	Seed uint64
	// Pressures are the inter-burst reclaim levels the objective sweeps;
	// Targets the SLO targets the attainment count scores.
	Pressures []int
	Targets   []obs.SLOTarget
	// Serve is the per-pressure serve scenario (its PressurePct is
	// overridden per sweep level, its RecordRequests forced on).
	Serve ServeConfig
}

// DefaultSearchConfig returns the search defaults: two iterations of two
// promotions over the serve figure's pressure bracket, on a serve
// scenario with enough bursts and a tight enough cache budget that the
// refault signal separates layouts.
func DefaultSearchConfig() SearchConfig {
	s := DefaultServeConfig()
	s.Bursts = 8
	s.CacheBudget = 48
	return SearchConfig{
		BudgetIters:    2,
		TopK:           2,
		PerturbPerIter: 6,
		Seed:           0x5ea2c4,
		Pressures:      []int{30, 70},
		Targets:        obs.DefaultSLOTargets(),
		Serve:          s,
	}
}

// withDefaults fills unset knobs so a zero-valued config is usable and
// the memoization key is canonical.
func (c SearchConfig) withDefaults() SearchConfig {
	d := DefaultSearchConfig()
	if c.BudgetIters <= 0 {
		c.BudgetIters = d.BudgetIters
	}
	if c.TopK <= 0 {
		c.TopK = d.TopK
	}
	if c.PerturbPerIter <= 0 {
		c.PerturbPerIter = d.PerturbPerIter
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if len(c.Pressures) == 0 {
		c.Pressures = append([]int(nil), d.Pressures...)
	}
	if len(c.Targets) == 0 {
		c.Targets = append([]obs.SLOTarget(nil), d.Targets...)
	}
	if c.Serve == (ServeConfig{}) {
		c.Serve = d.Serve
	}
	c.Serve = c.Serve.withDefaults()
	return c
}

// ServeAt is the measured serve scenario at one sweep pressure: the
// config's serve scenario with the pressure overridden and the
// per-request trace forced on (the attainment math consumes it).
func (c SearchConfig) ServeAt(pressure int) ServeConfig {
	s := c.Serve
	s.PressurePct = pressure
	s.RecordRequests = true
	return s
}

// key canonicalizes the config for memoization.
func (c SearchConfig) key() string {
	var targets []string
	for _, t := range c.Targets {
		targets = append(targets, t.String())
	}
	return fmt.Sprintf("%d/%d/%d/%d/%v/%s/%s",
		c.BudgetIters, c.TopK, c.PerturbPerIter, c.Seed, c.Pressures,
		strings.Join(targets, ","), c.Serve.key())
}

// SearchPressureScore is one pressure level's slice of a measured
// scorecard.
type SearchPressureScore struct {
	PressurePct int
	// Attained counts attained SLO targets out of Targets at this level.
	Attained int
	Targets  int
	// RefaultFactor is (baseline refaults + 1) / (candidate refaults + 1)
	// — > 1 means the layout refaults less than the identity baseline.
	RefaultFactor float64
}

// SearchScore is the measured scorecard the search optimizes: SLO
// attainment across the swept pressures, tie-broken on the
// refault-factor geomean and then on total error-budget burn.
type SearchScore struct {
	// Attained counts attained (pressure, target) cells out of Targets.
	Attained int
	Targets  int
	// BudgetBurn sums every cell's error-budget burn (lower is better).
	BudgetBurn float64
	// RefaultGeomean is the geomean of the per-pressure refault factors.
	RefaultGeomean float64
	// PerPressure breaks the card down by sweep level.
	PerPressure []SearchPressureScore
}

// betterSearchScore is the search's total order: more attained targets,
// then higher refault-factor geomean, then lower budget burn.
func betterSearchScore(a, b SearchScore) bool {
	if a.Attained != b.Attained {
		return a.Attained > b.Attained
	}
	if a.RefaultGeomean != b.RefaultGeomean {
		return a.RefaultGeomean > b.RefaultGeomean
	}
	return a.BudgetBurn < b.BudgetBurn
}

// strictlyBetterSearchScore accepts only strict improvement: equal
// scorecards keep the incumbent.
func strictlyBetterSearchScore(a, b SearchScore) bool {
	return betterSearchScore(a, b) &&
		(a.Attained != b.Attained || a.RefaultGeomean != b.RefaultGeomean || a.BudgetBurn != b.BudgetBurn)
}

// SearchResult is one workload's completed layout search.
type SearchResult struct {
	Workload string
	// Order is the winning text ordering (what the slo-search strategy
	// bakes); Score its measured scorecard.
	Order []string
	Score SearchScore
	// Journal is the full nimage.search/v1 trajectory record.
	Journal *obs.SearchReport
	// CandidateOrders maps every measured candidate's ID to the exact
	// ordering it baked — the metamorphic tests replay these against the
	// layout invariants.
	CandidateOrders map[string][]string
}

// SearchLayout runs (once per workload and config — memoized, and
// collapsed across concurrent callers) the SLO-driven layout search and
// returns the winning order with its journal. The serve affinity graph
// and all candidate measurements come from build 0: the search picks one
// order per workload, which every build of the slo-search strategy then
// bakes with its own seed, mirroring how a production tuner would ship
// one searched layout.
func (h *Harness) SearchLayout(w workloads.Workload, cfg SearchConfig) (*SearchResult, error) {
	if w.Serve == nil {
		return nil, fmt.Errorf("eval: workload %s has no serve spec", w.Name)
	}
	cfg = cfg.withDefaults()
	return memo(h, h.searchCache, "search\x00"+w.Name+"\x00"+cfg.key(), func() (*SearchResult, error) {
		return h.searchLayout(w, cfg)
	})
}

// searchLayout is the search loop proper. Everything here is serial and
// deterministic; see the package comment for why it must not touch the
// worker pool.
func (h *Harness) searchLayout(w workloads.Workload, cfg SearchConfig) (*SearchResult, error) {
	g, err := h.serveAffinityGraph(w, 0)
	if err != nil {
		return nil, err
	}
	baseImg, err := h.serveImage(w, LayoutBaseline, 0)
	if err != nil {
		return nil, err
	}
	// The baseline refault volume per pressure level anchors the
	// refault-factor side of every candidate's scorecard.
	baseRefaults := make(map[int]int64, len(cfg.Pressures))
	for _, p := range cfg.Pressures {
		o, err := h.runServe(baseImg, w, LayoutBaseline, cfg.ServeAt(p), false)
		if err != nil {
			return nil, err
		}
		baseRefaults[p] = o.RefaultPages
	}

	// measure bakes a candidate order through the graph-driven pipeline
	// path (build 0 seeds, the same options the serve images use) and
	// scores it at every sweep pressure. Scores are memoized by order
	// digest: sweep candidates that tie a seed bit-for-bit cost nothing.
	scores := make(map[uint64]SearchScore)
	measure := func(c core.SearchCandidate) (SearchScore, error) {
		d := core.OrderDigest(c.Order)
		if sc, ok := scores[d]; ok {
			return sc, nil
		}
		res, _, err := h.bake(w, core.StrategySLOSearch, 0, false, func(popts *image.PipelineOptions) error {
			popts.AffinityGraph = g
			popts.CodeOrder = c.Order
			return nil
		})
		if err != nil {
			return SearchScore{}, fmt.Errorf("eval: search candidate %s: %w", c.ID, err)
		}
		var sc SearchScore
		var logGeo float64
		for _, p := range cfg.Pressures {
			pcfg := cfg.ServeAt(p)
			o, err := h.runServe(res.Optimized, w, core.StrategySLOSearch, pcfg, false)
			if err != nil {
				return SearchScore{}, fmt.Errorf("eval: search measurement of %s candidate %s: %w", w.Name, c.ID, err)
			}
			ps := SearchPressureScore{
				PressurePct:   p,
				RefaultFactor: float64(baseRefaults[p]+1) / float64(o.RefaultPages+1),
			}
			entry := sloEntry(w.Name, core.StrategySLOSearch, pcfg, []*ServeOutcome{o}, cfg.Targets)
			for _, a := range entry.Attainments {
				ps.Targets++
				if a.Attained {
					ps.Attained++
				}
				sc.BudgetBurn += a.BudgetBurn
			}
			sc.Attained += ps.Attained
			sc.Targets += ps.Targets
			sc.PerPressure = append(sc.PerPressure, ps)
			logGeo += math.Log(ps.RefaultFactor)
		}
		sc.RefaultGeomean = math.Exp(logGeo / float64(len(cfg.Pressures)))
		scores[d] = sc
		return sc, nil
	}

	rep := &obs.SearchReport{
		Schema:      obs.SearchSchema,
		Workload:    w.Name,
		Strategy:    core.StrategySLOSearch,
		Seed:        cfg.Seed,
		BudgetIters: cfg.BudgetIters,
		TopK:        cfg.TopK,
		Pressures:   append([]int(nil), cfg.Pressures...),
		Targets:     append([]obs.SLOTarget(nil), cfg.Targets...),
	}
	candOrders := make(map[string][]string)
	record := func(c core.SearchCandidate, ref int64, loc float64) obs.SearchCandidateRecord {
		return obs.SearchCandidateRecord{
			ID:                c.ID,
			Op:                c.Op,
			OrderDigest:       fmt.Sprintf("%x", core.OrderDigest(c.Order)),
			PredictedRefaults: ref,
			PredictedLocality: loc,
		}
	}

	// Seed round: measure the plain c3/ext-tsp layouts; the best becomes
	// the incumbent every later candidate must strictly beat.
	seen := make(map[uint64]bool)
	var incumbent core.SearchCandidate
	var incScore SearchScore
	haveInc := false
	seedRound := obs.SearchIteration{Iter: 0}
	type measuredSeed struct {
		c   core.SearchCandidate
		ref int64
		loc float64
		sc  SearchScore
	}
	var seeds []measuredSeed
	for _, c := range core.SearchSeeds(g) {
		if len(c.Order) == 0 {
			continue
		}
		d := core.OrderDigest(c.Order)
		ref, loc, err := core.PredictOrder(g, c.Order, cfg.Pressures, cfg.Serve.CacheBudget)
		if err != nil {
			return nil, err
		}
		sc, err := measure(c)
		if err != nil {
			return nil, err
		}
		seeds = append(seeds, measuredSeed{c: c, ref: ref, loc: loc, sc: sc})
		seen[d] = true
		candOrders[c.ID] = append([]string(nil), c.Order...)
		if !haveInc || betterSearchScore(sc, incScore) {
			incumbent, incScore, haveInc = c, sc, true
		}
	}
	if !haveInc {
		return nil, fmt.Errorf("eval: search of %s: affinity graph yields no seed orderings", w.Name)
	}
	for _, s := range seeds {
		r := record(s.c, s.ref, s.loc)
		r.Promoted = true
		r.Attained, r.Targets = s.sc.Attained, s.sc.Targets
		r.BudgetBurn, r.RefaultGeomean = s.sc.BudgetBurn, s.sc.RefaultGeomean
		if s.c.ID == incumbent.ID {
			r.Accepted = true
			r.Reason = "best seed scorecard"
		} else {
			r.Reason = "weaker seed scorecard"
		}
		seedRound.Candidates = append(seedRound.Candidates, r)
	}
	seedRound.Incumbent = incumbent.ID
	rep.Iterations = append(rep.Iterations, seedRound)

	// Search iterations: generate, predict everything, promote top-k to
	// measurement, accept strict improvements greedily.
	for it := 1; it <= cfg.BudgetIters; it++ {
		cands := append(core.SearchSweeps(g),
			core.SearchPerturbations(incumbent.Order, it, cfg.Seed, cfg.PerturbPerIter)...)
		type predicted struct {
			c   core.SearchCandidate
			ref int64
			loc float64
		}
		var pool []predicted
		for _, c := range cands {
			if len(c.Order) == 0 {
				continue
			}
			d := core.OrderDigest(c.Order)
			if seen[d] {
				continue // already predicted or measured this ordering
			}
			seen[d] = true
			ref, loc, err := core.PredictOrder(g, c.Order, cfg.Pressures, cfg.Serve.CacheBudget)
			if err != nil {
				return nil, err
			}
			pool = append(pool, predicted{c: c, ref: ref, loc: loc})
		}
		sort.SliceStable(pool, func(i, j int) bool {
			if pool[i].ref != pool[j].ref {
				return pool[i].ref < pool[j].ref
			}
			if pool[i].loc != pool[j].loc {
				return pool[i].loc > pool[j].loc
			}
			return pool[i].c.ID < pool[j].c.ID
		})
		round := obs.SearchIteration{Iter: it}
		for rank, pc := range pool {
			r := record(pc.c, pc.ref, pc.loc)
			if rank >= cfg.TopK {
				r.Reason = "below promotion cut"
				round.Candidates = append(round.Candidates, r)
				continue
			}
			sc, err := measure(pc.c)
			if err != nil {
				return nil, err
			}
			candOrders[pc.c.ID] = append([]string(nil), pc.c.Order...)
			r.Promoted = true
			r.Attained, r.Targets = sc.Attained, sc.Targets
			r.BudgetBurn, r.RefaultGeomean = sc.BudgetBurn, sc.RefaultGeomean
			if strictlyBetterSearchScore(sc, incScore) {
				incumbent, incScore = pc.c, sc
				r.Accepted = true
				r.Reason = "strictly improves scorecard"
			} else {
				r.Reason = "no strict improvement over incumbent"
			}
			round.Candidates = append(round.Candidates, r)
		}
		round.Incumbent = incumbent.ID
		rep.Iterations = append(rep.Iterations, round)
	}

	rep.Final = obs.SearchFinal{
		Candidate:      incumbent.ID,
		Symbols:        len(incumbent.Order),
		OrderDigest:    fmt.Sprintf("%x", core.OrderDigest(incumbent.Order)),
		Attained:       incScore.Attained,
		Targets:        incScore.Targets,
		BudgetBurn:     incScore.BudgetBurn,
		RefaultGeomean: incScore.RefaultGeomean,
	}
	return &SearchResult{
		Workload:        w.Name,
		Order:           append([]string(nil), incumbent.Order...),
		Score:           incScore,
		Journal:         rep,
		CandidateOrders: candOrders,
	}, nil
}

// MeasuredSearchScore scores an already-registered strategy on the
// search's own objective from its memoized build-0 serve measurements —
// the apples-to-apples comparison surface of `nimage-eval -figure
// search` and the acceptance tests. For Builds=1 harnesses the
// slo-search row reproduces the search's in-loop measurement of its
// winner bit for bit (identical build options, identical serve
// protocol). Unlike SearchLayout this fans builds out through
// MeasureServe, so it must be called from the top level, not from inside
// a harness task.
func (h *Harness) MeasuredSearchScore(w workloads.Workload, strategy string, cfg SearchConfig) (*SearchScore, error) {
	cfg = cfg.withDefaults()
	var sc SearchScore
	var logGeo float64
	for _, p := range cfg.Pressures {
		pcfg := cfg.ServeAt(p)
		base, err := h.MeasureServe(w, LayoutBaseline, pcfg)
		if err != nil {
			return nil, err
		}
		outs, err := h.MeasureServe(w, strategy, pcfg)
		if err != nil {
			return nil, err
		}
		ps := SearchPressureScore{
			PressurePct:   p,
			RefaultFactor: float64(base[0].RefaultPages+1) / float64(outs[0].RefaultPages+1),
		}
		entry := sloEntry(w.Name, strategy, pcfg, outs[:1], cfg.Targets)
		for _, a := range entry.Attainments {
			ps.Targets++
			if a.Attained {
				ps.Attained++
			}
			sc.BudgetBurn += a.BudgetBurn
		}
		sc.Attained += ps.Attained
		sc.Targets += ps.Targets
		sc.PerPressure = append(sc.PerPressure, ps)
		logGeo += math.Log(ps.RefaultFactor)
	}
	if len(cfg.Pressures) > 0 {
		sc.RefaultGeomean = math.Exp(logGeo / float64(len(cfg.Pressures)))
	}
	return &sc, nil
}
