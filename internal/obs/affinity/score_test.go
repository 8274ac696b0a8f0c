package affinity

import (
	"testing"

	"nimage/internal/obs/attrib"
	"nimage/internal/osim"
)

// scoreGraph records a stream where pages 0 and 2 (nodes <header>/A and
// hub/O2 areas) are always hot together across many windows, with a
// pressure reclaim between consecutive windows (the boundaries the
// refault replay reclaims at, like the serve harness's inter-burst
// evictions).
func scoreGraph(t *testing.T) *Graph {
	t.Helper()
	r := NewRecorder(testIndex(), Config{WindowEvents: 4})
	clock := int64(0)
	for w := 0; w < 8; w++ {
		if w > 0 {
			r.OnPageEvent(osim.PageEvent{Kind: osim.PageEvict, Off: 0, Page: 0, Section: 0, Cause: osim.EvictPressure})
		}
		for _, p := range []int{0, 2, 0, 2} {
			clock++
			access(r, p, clock)
		}
	}
	g := r.Graph()
	g.Workload = "w"
	return g
}

func placeAt(offs map[string]int64) *Placement {
	var syms []attrib.Symbol
	for name, off := range offs {
		syms = append(syms, attrib.Symbol{Name: name, Off: off, Len: 64})
	}
	return NewPlacement(syms)
}

// TestScoreLocalityOrdering checks that a layout packing the co-accessed
// symbols onto one page beats a layout scattering them, on every
// scorecard dimension.
func TestScoreLocalityOrdering(t *testing.T) {
	g := scoreGraph(t)
	packed := placeAt(map[string]int64{
		"<header>": 0, "hub:O1": 128, // same page
	})
	scattered := placeAt(map[string]int64{
		"<header>": 0, "hub:O1": 10 * osim.PageSize, // 10 pages apart
	})
	ps, err := Score(g, packed, "packed", 50, 0)
	if err != nil {
		t.Fatalf("score packed: %v", err)
	}
	ss, err := Score(g, scattered, "scattered", 50, 0)
	if err != nil {
		t.Fatalf("score scattered: %v", err)
	}
	if ps.MappedNodes != 2 || ss.MappedNodes != 2 {
		t.Fatalf("mapped nodes: packed %d scattered %d", ps.MappedNodes, ss.MappedNodes)
	}
	if ps.LocalityScore <= ss.LocalityScore {
		t.Fatalf("packed locality %v <= scattered %v", ps.LocalityScore, ss.LocalityScore)
	}
	if ps.LocalityScore != 1 {
		t.Fatalf("packed locality = %v, want 1 (all weight same-page)", ps.LocalityScore)
	}
	if ps.AvgWindowPages >= ss.AvgWindowPages {
		t.Fatalf("packed window pages %v >= scattered %v", ps.AvgWindowPages, ss.AvgWindowPages)
	}
	// Under 50% inter-window pressure the scattered layout's two pages
	// churn (one gets reclaimed each gap and touched again); the packed
	// layout's single page survives as the hottest page.
	if ps.PredictedRefaults >= ss.PredictedRefaults {
		t.Fatalf("packed predicted refaults %d >= scattered %d", ps.PredictedRefaults, ss.PredictedRefaults)
	}
	RefaultFactors(ss, []*Scorecard{ps, ss})
	if ps.PredictedRefaultFactor <= 1 || ss.PredictedRefaultFactor != 1 {
		t.Fatalf("refault factors: packed %v scattered %v", ps.PredictedRefaultFactor, ss.PredictedRefaultFactor)
	}
}

// TestScoreUnmappedNodes: a placement naming none of the graph's nodes
// yields a zeroed card, not a crash.
func TestScoreUnmappedNodes(t *testing.T) {
	g := scoreGraph(t)
	sc, err := Score(g, placeAt(map[string]int64{"unknown": 0}), "empty", 30, 0)
	if err != nil {
		t.Fatalf("score empty placement: %v", err)
	}
	if sc.MappedNodes != 0 || sc.LocalityScore != 0 || sc.PredictedRefaults != 0 || sc.PredictedColdPages != 0 {
		t.Fatalf("empty placement card: %+v", sc)
	}
	if sc.TotalNodes == 0 {
		t.Fatal("total nodes should still count the graph's nodes")
	}
}

// TestScorePressureBounds: Score rejects pressure percentages outside
// [0, 100] and accepts the boundaries, mirroring the CLI's
// reject-don't-clamp flag validation.
func TestScorePressureBounds(t *testing.T) {
	g := scoreGraph(t)
	layout := placeAt(map[string]int64{"<header>": 0, "hub:O1": 128})
	cases := []struct {
		name     string
		pressure int
		wantErr  bool
	}{
		{"negative", -1, true},
		{"over hundred", 101, true},
		{"far negative", -100, true},
		{"far over", 1000, true},
		{"zero", 0, false},
		{"hundred", 100, false},
		{"interior", 50, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := Score(g, layout, "s", tc.pressure, 0)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("pressure %d: want error, got card %+v", tc.pressure, sc)
				}
				if sc != nil {
					t.Fatalf("pressure %d: error should carry a nil card, got %+v", tc.pressure, sc)
				}
				return
			}
			if err != nil {
				t.Fatalf("pressure %d: %v", tc.pressure, err)
			}
			if sc.PressurePct != tc.pressure {
				t.Fatalf("pressure %d: card records %d", tc.pressure, sc.PressurePct)
			}
		})
	}
}

// TestScoreCacheBudget pins the budget half of the replay: a negative
// budget is rejected; under a one-page budget and zero pressure, a
// layout scattering the window's two symbols churns (each touch evicts
// the other page) while a packed layout fits and never refaults.
func TestScoreCacheBudget(t *testing.T) {
	g := scoreGraph(t)
	scattered := placeAt(map[string]int64{
		"<header>": 0, "hub:O1": 10 * osim.PageSize,
	})
	packed := placeAt(map[string]int64{
		"<header>": 0, "hub:O1": 128,
	})
	if sc, err := Score(g, scattered, "s", 0, -1); err == nil {
		t.Fatalf("negative budget accepted: %+v", sc)
	}
	churn, err := Score(g, scattered, "s", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 8 windows, 2 pages each: windows 2-8 refault both pages.
	if want := int64(7 * 2); churn.PredictedRefaults != want {
		t.Fatalf("budget churn predicted %d refaults, want %d", churn.PredictedRefaults, want)
	}
	if churn.CacheBudget != 1 {
		t.Fatalf("card records budget %d, want 1", churn.CacheBudget)
	}
	fit, err := Score(g, packed, "s", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fit.PredictedRefaults != 0 {
		t.Fatalf("fitting layout predicted %d refaults, want 0", fit.PredictedRefaults)
	}
}

// TestScorePressureExtremes pins the replay semantics at the accepted
// boundaries: 0%% pressure never evicts (no refaults possible), 100%%
// pressure reclaims every resident page between windows, so each window
// after the first refaults its full working set.
func TestScorePressureExtremes(t *testing.T) {
	g := scoreGraph(t)
	layout := placeAt(map[string]int64{
		"<header>": 0, "hub:O1": 10 * osim.PageSize,
	})
	relaxed, err := Score(g, layout, "s", 0, 0)
	if err != nil {
		t.Fatalf("score at 0%%: %v", err)
	}
	if relaxed.PredictedRefaults != 0 {
		t.Fatalf("0%% pressure predicted %d refaults, want 0", relaxed.PredictedRefaults)
	}
	crushed, err := Score(g, layout, "s", 100, 0)
	if err != nil {
		t.Fatalf("score at 100%%: %v", err)
	}
	// 8 windows touch 2 pages each; all but the first window's pages are
	// refaults under total reclaim.
	if want := int64(7 * 2); crushed.PredictedRefaults != want {
		t.Fatalf("100%% pressure predicted %d refaults, want %d", crushed.PredictedRefaults, want)
	}
	if crushed.PredictedColdPages != relaxed.PredictedColdPages {
		t.Fatalf("cold pages differ by pressure: %d vs %d", crushed.PredictedColdPages, relaxed.PredictedColdPages)
	}
}
