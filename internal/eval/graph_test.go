package eval

// Acceptance tests for the graph-based serve layouts (c3, ext-tsp): the
// registry routes them through the serve figure, at least one of them
// beats the combined cu+heap-path layout on the measured refault-factor
// geomean, and the static scorecard's predicted ordering agrees with the
// measured one.

import (
	"math"
	"testing"

	"nimage/internal/core"
	"nimage/internal/workloads"
)

// graphServeConfig mirrors TestPredictedRefaultOrderingMatchesMeasured:
// eight full-size bursts under a tight resident budget, so inter-burst
// reclaim actually evicts pages the next burst revisits and the refault
// columns carry signal instead of single-page noise.
func graphServeConfig(pressure int) ServeConfig {
	scfg := DefaultServeConfig()
	scfg.Bursts = 8
	scfg.CacheBudget = 48
	scfg.PressurePct = pressure
	return scfg
}

// TestGraphStrategyBeatsCombinedOnServeRefaults is the tentpole acceptance
// criterion: the graph-based layouts bake from a serve-phase affinity
// recording that sees the burst traffic, while cu+heap path profiles only
// the startup prefix — so on the serve refault-factor geomean (across both
// serve workloads), c3 or ext-tsp must win at 30% or 70% pressure.
func TestGraphStrategyBeatsCombinedOnServeRefaults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 2
	h := NewHarness(cfg)
	ws := workloads.Serve()
	strategies := []string{core.StrategyCombined, core.StrategyC3, core.StrategyExtTSP}

	geomeans := make(map[int]map[string]float64)
	for _, pressure := range []int{30, 70} {
		tab, err := h.ServeRefaultTable(ws, graphServeConfig(pressure), strategies)
		if err != nil {
			t.Fatal(err)
		}
		geomeans[pressure] = make(map[string]float64)
		for _, s := range strategies {
			c := tab.Get(GeoMeanRow, s)
			if c == nil {
				t.Fatalf("pressure %d%%: no geomean cell for %q", pressure, s)
			}
			if c.Degenerate || math.IsNaN(c.Factor) {
				t.Fatalf("pressure %d%%: degenerate refault geomean for %q (no measurable refaults)", pressure, s)
			}
			geomeans[pressure][s] = c.Factor
		}
	}

	won := false
	for pressure, g := range geomeans {
		best := math.Max(g[core.StrategyC3], g[core.StrategyExtTSP])
		t.Logf("pressure %d%%: refault-factor geomeans combined=%.3f c3=%.3f ext-tsp=%.3f",
			pressure, g[core.StrategyCombined], g[core.StrategyC3], g[core.StrategyExtTSP])
		if best > g[core.StrategyCombined] {
			won = true
		}
	}
	if !won {
		t.Fatalf("neither c3 nor ext-tsp beats %q on the refault-factor geomean at 30%% or 70%% pressure: %v",
			core.StrategyCombined, geomeans)
	}
}

// measuredGapDecisive reports whether two measured refault means differ
// by more than build-to-build noise (10% of the larger mean, over the
// harness's two seed-perturbed builds) — only then does the measurement
// carry an ordering the static scorecard proxy must reproduce.
func measuredGapDecisive(a, b float64) bool {
	gap := math.Abs(a - b)
	return gap > 0.1*math.Max(a, b)
}

// TestPredictedOrderingMatchesMeasuredGraphStrategies extends the
// scorecard acceptance criterion to the graph strategies: wherever the
// measured refault means of two strategies decisively differ, the
// scorecard's predicted refaults must rank them the same way.
func TestPredictedOrderingMatchesMeasuredGraphStrategies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 2
	cfg.TrackAffinity = true
	h := NewHarness(cfg)
	strategies := []string{core.StrategyCombined, core.StrategyC3, core.StrategyExtTSP}
	for _, name := range []string{"serve-api", "serve-cache"} {
		w := serveWorkload(t, name)
		for _, pressure := range []int{30, 70} {
			scfg := graphServeConfig(pressure)
			_, cards, err := h.AffinityScorecards(w, scfg, strategies)
			if err != nil {
				t.Fatal(err)
			}
			predicted := make(map[string]int64)
			for _, c := range cards[1:] {
				predicted[c.Strategy] = c.PredictedRefaults
			}
			measured := make(map[string]float64)
			for _, s := range strategies {
				outs, err := h.MeasureServe(w, s, scfg)
				if err != nil {
					t.Fatal(err)
				}
				var refaults []float64
				for _, o := range outs {
					refaults = append(refaults, float64(o.RefaultPages))
				}
				measured[s] = Mean(refaults)
			}
			for i, a := range strategies {
				for _, b := range strategies[i+1:] {
					if !measuredGapDecisive(measured[a], measured[b]) {
						// A measured near-tie carries no ordering to agree with.
						continue
					}
					if (predicted[a] < predicted[b]) != (measured[a] < measured[b]) {
						t.Errorf("%s @ %d%%: predicted %s=%d %s=%d, measured %s=%v %s=%v — orderings disagree",
							name, pressure, a, predicted[a], b, predicted[b], a, measured[a], b, measured[b])
					}
				}
			}
		}
	}
}

// TestServeTablesCoverRegisteredServeStrategies: the serve figure's tables
// default their strategy set from the registry, so every Serve-flagged
// strategy — including the graph-based ones — gets a column with a cell
// per workload plus a geomean cell, with no hard-coded list to forget to
// update.
func TestServeTablesCoverRegisteredServeStrategies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	h := NewHarness(cfg)
	ws := workloads.Serve()
	tab, err := h.ServeRefaultTable(ws, serveTestConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := core.ServeStrategyNames()
	if len(tab.Strategies) != len(want) {
		t.Fatalf("table strategies %v, want registry serve set %v", tab.Strategies, want)
	}
	for i, s := range want {
		if tab.Strategies[i] != s {
			t.Fatalf("table strategies %v, want registry serve set %v", tab.Strategies, want)
		}
	}
	for _, mustHave := range []string{core.StrategyC3, core.StrategyExtTSP} {
		found := false
		for _, s := range tab.Strategies {
			if s == mustHave {
				found = true
			}
		}
		if !found {
			t.Fatalf("registry serve set %v is missing %q", tab.Strategies, mustHave)
		}
	}
	for _, s := range want {
		for _, w := range ws {
			if tab.Get(w.Name, s) == nil {
				t.Errorf("no cell for workload %q strategy %q", w.Name, s)
			}
		}
		if tab.Get(GeoMeanRow, s) == nil {
			t.Errorf("no geomean cell for strategy %q", s)
		}
	}
}
