package eval

// The search-grade test battery for the SLO-driven layout search:
// bit-determinism of the full trajectory across worker counts and
// repeats, the "no worse than the best seed" acceptance floor on both
// serve workloads, and the metamorphic guarantee that every candidate
// the search ever bakes is a pure permutation of the reference image.
// The differential-verifier enrollment of the slo-search strategy is
// covered alongside (TestSLOSearchPassesDifferentialVerifier).

import (
	"bytes"
	"testing"

	"nimage/internal/core"
	"nimage/internal/image"
	"nimage/internal/obs"
	"nimage/internal/verify"
	"nimage/internal/workloads"
)

// searchTestConfig is a small-budget search: one iteration, one
// promotion, two perturbations — enough to traverse every loop phase
// (seed round, sweep generation, perturbation, promotion cut, accept or
// reject) while keeping each test run to a handful of bakes.
func searchTestConfig() SearchConfig {
	cfg := DefaultSearchConfig()
	cfg.BudgetIters = 1
	cfg.TopK = 1
	cfg.PerturbPerIter = 2
	return cfg
}

// TestSearchDeterminism mirrors TestParallelDeterminism for the layout
// search: the full trajectory — winning order, measured scorecard, and
// the exact nimage.search/v1 journal bytes — must be bit-identical
// across -workers counts and repeated fresh harnesses. The search is
// driven through MeasureServe (the production entry: serveImage bakes
// the searched winner for every build), so the worker pool is actually
// exercised around it.
func TestSearchDeterminism(t *testing.T) {
	w := serveWorkload(t, "serve-api")
	scfg := searchTestConfig()
	run := func(workers int) (string, []string) {
		cfg := DefaultConfig()
		cfg.Builds = 2
		cfg.Iterations = 1
		cfg.Workers = workers
		h := NewHarness(cfg)
		if _, err := h.MeasureServe(w, core.StrategySLOSearch, scfg.ServeAt(30)); err != nil {
			t.Fatal(err)
		}
		res, err := h.SearchLayout(w, DefaultSearchConfig())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := obs.WriteDoc(&buf, res.Journal); err != nil {
			t.Fatal(err)
		}
		return buf.String(), res.Order
	}
	refJournal, refOrder := run(1)
	for _, workers := range []int{1, 8} {
		journal, order := run(workers)
		if journal != refJournal {
			t.Errorf("-workers %d: search journal differs from the serial run:\n--- serial ---\n%s--- workers=%d ---\n%s",
				workers, refJournal, workers, journal)
		}
		if len(order) != len(refOrder) {
			t.Fatalf("-workers %d: winning order has %d symbols, serial run had %d", workers, len(order), len(refOrder))
		}
		for i := range order {
			if order[i] != refOrder[i] {
				t.Fatalf("-workers %d: winning order diverges at position %d: %q vs %q",
					workers, i, order[i], refOrder[i])
			}
		}
	}
}

// TestSearchJournalRoundTrips: the journal the search emits survives the
// fuzz-hardened nimage.search/v1 codec bit-for-bit — what the search
// writes, `nimage tune -o` readers get back.
func TestSearchJournalRoundTrips(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	cfg.Iterations = 1
	h := NewHarness(cfg)
	w := serveWorkload(t, "serve-api")
	res, err := h.SearchLayout(w, searchTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteSearchReport(&buf, res.Journal); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ReadSearchReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("journal the search emitted fails its own codec: %v", err)
	}
	var again bytes.Buffer
	if err := obs.WriteSearchReport(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Errorf("journal is not an encode/decode fixed point:\n--- first ---\n%s--- second ---\n%s",
			buf.String(), again.String())
	}
	if res.Journal.Final.Candidate == "" || res.Journal.Final.Symbols != len(res.Order) {
		t.Errorf("journal final block inconsistent with result: %+v vs %d symbols",
			res.Journal.Final, len(res.Order))
	}
}

// TestSearchAttainmentFloor is the acceptance criterion: on both serve
// workloads, at the swept 30%/70% pressures, the searched slo-search
// layout's SLO attainment is >= both seeds' (c3, ext-tsp), and wherever
// attainment ties the best seed, the refault-factor geomean is >= the
// best seed's too — the floor the accept-only-on-strict-improvement
// loop guarantees by construction, so any regression here is a real
// search bug, not measurement noise.
func TestSearchAttainmentFloor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	cfg.Iterations = 1
	h := NewHarness(cfg)
	scfg := searchTestConfig()
	for _, name := range []string{"serve-api", "serve-cache"} {
		w := serveWorkload(t, name)
		scores := make(map[string]*SearchScore)
		for _, s := range []string{core.StrategyC3, core.StrategyExtTSP, core.StrategySLOSearch} {
			// slo-search must bake the searched winner through MeasureServe:
			// the production path the figures use. Note the serve config of
			// MeasuredSearchScore must match the search's own (serveImage
			// runs the search at DefaultSearchConfig), so the test config
			// only shrinks the budget, never the serve scenario.
			sc, err := h.MeasuredSearchScore(w, s, scfg)
			if err != nil {
				t.Fatal(err)
			}
			scores[s] = sc
			t.Logf("%s/%s: attained %d/%d, refault geomean %.3f, burn %.3f",
				name, s, sc.Attained, sc.Targets, sc.RefaultGeomean, sc.BudgetBurn)
		}
		slo := scores[core.StrategySLOSearch]
		best := scores[core.StrategyC3]
		if betterSearchScore(*scores[core.StrategyExtTSP], *best) {
			best = scores[core.StrategyExtTSP]
		}
		for _, s := range []string{core.StrategyC3, core.StrategyExtTSP} {
			if slo.Attained < scores[s].Attained {
				t.Errorf("%s: slo-search attains %d/%d targets, below %s's %d/%d",
					name, slo.Attained, slo.Targets, s, scores[s].Attained, scores[s].Targets)
			}
		}
		if slo.Attained == best.Attained && slo.RefaultGeomean < best.RefaultGeomean {
			t.Errorf("%s: slo-search refault geomean %.4f regresses below the best seed's %.4f at equal attainment",
				name, slo.RefaultGeomean, best.RefaultGeomean)
		}
	}
}

// TestSearchCandidatesArePermutations is the metamorphic invariant: every
// candidate ordering the search ever measured, baked through the same
// pipeline path the search used, is a pure permutation of the reference
// image — same CU bodies, same objects, same section extents, valid
// offsets. A search that "wins" by dropping or duplicating code would
// fail here, not in a figure.
func TestSearchCandidatesArePermutations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	cfg.Iterations = 1
	h := NewHarness(cfg)
	w := serveWorkload(t, "serve-api")
	res, err := h.SearchLayout(w, searchTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CandidateOrders) < 2 {
		t.Fatalf("search measured only %d candidates; expected at least the two seeds", len(res.CandidateOrders))
	}
	g, err := h.serveAffinityGraph(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := h.Program(w)
	ref, err := image.Build(p, image.Options{
		Kind:      image.KindOptimized,
		Compiler:  h.Cfg.Compiler,
		BuildSeed: optimizedSeed(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, order := range res.CandidateOrders {
		bakeRes, err := image.BuildOptimized(p, image.PipelineOptions{
			Compiler:         h.Cfg.Compiler,
			Strategy:         core.StrategySLOSearch,
			InstrumentedSeed: instrumentedSeed(0),
			OptimizedSeed:    optimizedSeed(0),
			Args:             w.Args,
			Service:          true,
			AffinityGraph:    g,
			CodeOrder:        order,
		})
		if err != nil {
			t.Fatalf("candidate %s failed to bake: %v", id, err)
		}
		for _, fail := range verify.PermutationFailures(ref, bakeRes.Optimized) {
			t.Errorf("candidate %s violates a layout invariant: %s", id, fail)
		}
	}
}

// TestSLOSearchPassesDifferentialVerifier: the registered slo-search
// strategy — baking standalone through its graph-scored inner search,
// no measured winner injected — passes the full differential verifier,
// including over generated workload seeds.
func TestSLOSearchPassesDifferentialVerifier(t *testing.T) {
	rep, err := verify.Run(verify.Options{
		Workloads:  []workloads.Workload{serveWorkload(t, "serve-api")},
		Strategies: []string{core.StrategySLOSearch},
		Seeds:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		for _, d := range rep.Divergences {
			t.Errorf("divergence: %+v", d)
		}
	}
}
