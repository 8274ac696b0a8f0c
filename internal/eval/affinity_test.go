package eval

import (
	"testing"

	"nimage/internal/core"
)

// TestAffinityScorecards: the baseline graph scores every strategy layout,
// the baseline card's factor is exactly 1, and the graphs reconcile with
// the serve outcomes they were merged from.
func TestAffinityScorecards(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	cfg.TrackAffinity = true
	h := NewHarness(cfg)
	w := serveWorkload(t, "serve-api")
	scfg := serveTestConfig()
	g, cards, err := h.AffinityScorecards(w, scfg, []string{core.StrategyCU})
	if err != nil {
		t.Fatal(err)
	}
	if g == nil || len(g.Edges) == 0 || g.Windows == 0 {
		t.Fatalf("degenerate merged graph: %+v", g)
	}
	if len(cards) != 2 {
		t.Fatalf("got %d cards, want baseline + cu", len(cards))
	}
	if cards[0].Strategy != LayoutBaseline || cards[1].Strategy != core.StrategyCU {
		t.Fatalf("card order: %q, %q", cards[0].Strategy, cards[1].Strategy)
	}
	if cards[0].PredictedRefaultFactor != 1 {
		t.Errorf("baseline factor = %v, want 1", cards[0].PredictedRefaultFactor)
	}
	for _, c := range cards {
		if c.MappedNodes == 0 || c.TotalNodes == 0 {
			t.Errorf("%s: card maps no nodes: %+v", c.Strategy, c)
		}
		if c.PressurePct != scfg.PressurePct {
			t.Errorf("%s: pressure %d, want %d", c.Strategy, c.PressurePct, scfg.PressurePct)
		}
		if c.LocalityScore < 0 || c.LocalityScore > 1 {
			t.Errorf("%s: locality %v out of [0,1]", c.Strategy, c.LocalityScore)
		}
	}

	// The merged graph's totals reconcile with the outcomes it came from.
	outs, err := h.MeasureServe(w, LayoutBaseline, scfg)
	if err != nil {
		t.Fatal(err)
	}
	var evicted int64
	for _, o := range outs {
		evicted += o.EvictedPages
	}
	if g.Evictions != evicted {
		t.Errorf("merged graph evictions %d != serve outcomes total %d", g.Evictions, evicted)
	}
}

// TestAffinityScorecardsRequireTracking: a detached harness records no
// graphs, and the scorecard method says so instead of returning junk.
func TestAffinityScorecardsRequireTracking(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 1
	h := NewHarness(cfg)
	w := serveWorkload(t, "serve-api")
	if _, _, err := h.AffinityScorecards(w, serveTestConfig(), nil); err == nil {
		t.Fatal("scorecards produced without affinity tracking")
	}
}

// TestPredictedRefaultOrderingMatchesMeasured is the acceptance criterion
// of the scorecard: on both serve workloads, under mild (30%) and severe
// (70%) inter-burst pressure, the static prediction ranks cu vs heap-path
// the same way MeasureServe's ground-truth refault factors do.
func TestPredictedRefaultOrderingMatchesMeasured(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Builds = 2
	cfg.TrackAffinity = true
	h := NewHarness(cfg)
	strategies := []string{core.StrategyCU, core.StrategyHeapPath}
	for _, name := range []string{"serve-api", "serve-cache"} {
		w := serveWorkload(t, name)
		for _, pressure := range []int{30, 70} {
			// Eight full-size bursts under a tight resident budget: without
			// the budget, the LRU pressure reclaims only cold pages the
			// bursts never revisit, and the measured cu-vs-heap margin
			// collapses to single-page noise with no ordering to predict.
			scfg := DefaultServeConfig()
			scfg.Bursts = 8
			scfg.CacheBudget = 48
			scfg.PressurePct = pressure
			_, cards, err := h.AffinityScorecards(w, scfg, strategies)
			if err != nil {
				t.Fatal(err)
			}
			predCU, predHeap := cards[1].PredictedRefaults, cards[2].PredictedRefaults

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
			measCU, measHeap := measured[core.StrategyCU], measured[core.StrategyHeapPath]
			if !measuredGapDecisive(measCU, measHeap) {
				// A measured near-tie (within build-to-build noise) carries
				// no ordering the static proxy must agree with.
				continue
			}
			if (predCU < predHeap) != (measCU < measHeap) {
				t.Errorf("%s @ %d%%: predicted cu=%d heap-path=%d, measured cu=%v heap-path=%v — orderings disagree",
					name, pressure, predCU, predHeap, measCU, measHeap)
			}
		}
	}
}
