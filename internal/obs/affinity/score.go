package affinity

// Layout scorecards: graph × layout → a static prediction of serve-mode
// quality. The affinity graph names symbols (build-stable names), and a
// candidate layout places the same symbols at new offsets, so a graph
// recorded once against the baseline can score every candidate layout
// without re-running the simulation, with MeasureServe as the ground
// truth it must order-agree with (asserted by an eval test).

import (
	"fmt"
	"sort"

	"nimage/internal/obs/attrib"
	"nimage/internal/osim"
)

// Scorecard is the static layout-quality prediction for one strategy.
type Scorecard struct {
	Workload string `json:"workload,omitempty"`
	// Strategy names the scored layout ("identity", "cu", ...).
	Strategy string `json:"strategy"`
	// PressurePct is the inter-window reclaim percentage the refault
	// replay simulated (mirrors ServeConfig.PressurePct); CacheBudget the
	// resident-page cap enforced during windows (mirrors
	// ServeConfig.CacheBudget; 0 = unbounded).
	PressurePct int `json:"pressure_pct"`
	CacheBudget int `json:"cache_budget,omitempty"`

	// MappedNodes counts graph nodes the layout places (by name);
	// TotalNodes all graph nodes. Unmapped nodes (pseudo-nodes, symbols
	// the strategy dropped) are excluded from the scores.
	MappedNodes int `json:"mapped_nodes"`
	TotalNodes  int `json:"total_nodes"`

	// LocalityScore is the fraction of mapped edge weight whose endpoints
	// land on the same or adjacent pages of the layout (1.0 = every
	// affinity edge is page-local; higher is better).
	LocalityScore float64 `json:"locality_score"`
	// SamePageWeight/AdjacentWeight/FarWeight decompose the mapped edge
	// weight by endpoint page distance (0, 1, >1).
	SamePageWeight float64 `json:"same_page_weight"`
	AdjacentWeight float64 `json:"adjacent_weight"`
	FarWeight      float64 `json:"far_weight"`

	// AvgWindowPages/PeakWindowPages are the expected and worst-case
	// working-set pages per co-residency window under this layout (lower
	// is better — fewer pages must stay resident per burst).
	AvgWindowPages  float64 `json:"avg_window_pages"`
	PeakWindowPages int     `json:"peak_window_pages"`

	// PredictedRefaults replays the window log against the layout under
	// an LRU reclaim of PressurePct between windows and the CacheBudget
	// resident cap during them — the static proxy for MeasureServe's
	// refault count. PredictedColdPages counts the distinct pages the
	// replay touched (the layout's working set).
	PredictedRefaults  int64 `json:"predicted_refaults"`
	PredictedColdPages int64 `json:"predicted_cold_pages"`
	// PredictedRefaultFactor is baseline/strategy predicted refaults
	// (additively smoothed: (b+1)/(s+1), so zero predictions stay
	// rankable; >1 = better than baseline). Filled by RefaultFactors.
	PredictedRefaultFactor float64 `json:"predicted_refault_factor,omitempty"`
}

// layoutSymbol is a node resolved into a candidate layout.
type layoutSymbol struct {
	firstPage int64
	lastPage  int64
}

// Placement resolves graph nodes into a candidate layout by symbol name.
// Build it once per layout and score many graphs (or vice versa).
type Placement struct {
	byName map[string]layoutSymbol
}

// NewPlacement indexes a layout's symbols by name for scoring. The
// symbols come from the candidate image's attribution index — the same
// build-stable names the graph's nodes carry, so a graph recorded
// against one layout scores any other layout of the same program.
func NewPlacement(syms []attrib.Symbol) *Placement {
	p := &Placement{byName: make(map[string]layoutSymbol, len(syms))}
	for _, s := range syms {
		if s.Len <= 0 {
			continue
		}
		p.byName[s.Name] = layoutSymbol{
			firstPage: s.Off / osim.PageSize,
			lastPage:  (s.Off + s.Len - 1) / osim.PageSize,
		}
	}
	return p
}

// Score computes the scorecard of one layout against the recorded graph.
// pressurePct is the inter-window reclaim percentage of the refault
// replay and cacheBudget its resident-page cap (use the serve config's
// values to mirror MeasureServe; 0 budget = unbounded). A pressure
// outside [0, 100] or a negative budget is rejected, mirroring the CLI
// bounds — a percentage over 100 would silently reclaim everything,
// masking a caller bug.
func Score(g *Graph, layout *Placement, strategy string, pressurePct, cacheBudget int) (*Scorecard, error) {
	if pressurePct < 0 || pressurePct > 100 {
		return nil, fmt.Errorf("affinity: pressurePct %d out of range [0, 100]", pressurePct)
	}
	if cacheBudget < 0 {
		return nil, fmt.Errorf("affinity: cacheBudget %d must be >= 0", cacheBudget)
	}
	sc := &Scorecard{
		Workload:    g.Workload,
		Strategy:    strategy,
		PressurePct: pressurePct,
		CacheBudget: cacheBudget,
		TotalNodes:  len(g.Nodes),
	}
	pages := make([]layoutSymbol, len(g.Nodes))
	mapped := make([]bool, len(g.Nodes))
	for i, n := range g.Nodes {
		if ls, ok := layout.byName[n.Name]; ok {
			pages[i] = ls
			mapped[i] = true
			sc.MappedNodes++
		}
	}

	// Locality: edge weight by endpoint page distance in the layout.
	for _, e := range g.Edges {
		if !mapped[e.A] || !mapped[e.B] {
			continue
		}
		d := pages[e.A].firstPage - pages[e.B].firstPage
		if d < 0 {
			d = -d
		}
		switch {
		case d == 0:
			sc.SamePageWeight += e.Weight
		case d == 1:
			sc.AdjacentWeight += e.Weight
		default:
			sc.FarWeight += e.Weight
		}
	}
	if total := sc.SamePageWeight + sc.AdjacentWeight + sc.FarWeight; total > 0 {
		sc.LocalityScore = (sc.SamePageWeight + sc.AdjacentWeight) / total
	}

	// Window working sets and the refault replay: windows become bursts,
	// inter-window pressure reclaims the coldest resident pages (the LRU
	// mirror of osim.ReclaimFraction), then the window's pages are
	// touched in node order with the budget's LRU eviction applied after
	// every touch (the mirror of osim's CacheBudget) — without the
	// budget, a layout whose burst working set overflows the cache looks
	// as good as one that fits it, and the predicted ordering diverges
	// from the measured one exactly where serve mode hurts most.
	resident := make(map[int64]int64) // page -> last-use stamp
	evicted := make(map[int64]bool)
	touched := make(map[int64]bool)
	var stamp int64
	var sumPages int64
	for _, w := range g.WindowLog {
		// Reclaim only at the recorded pressure boundaries (the measured
		// run's inter-burst evictions), not between every window — a
		// burst spans many windows, and reclaiming at each would swamp
		// the budget churn that dominates the measured refault count.
		if w.Pressure && pressurePct > 0 {
			reclaim(resident, evicted, len(resident)*pressurePct/100)
		}
		winPages := make(map[int64]bool)
		for _, id := range w.Nodes {
			if !mapped[id] {
				continue
			}
			for p := pages[id].firstPage; p <= pages[id].lastPage; p++ {
				winPages[p] = true
				stamp++
				if evicted[p] {
					sc.PredictedRefaults++
					delete(evicted, p)
				}
				resident[p] = stamp
				touched[p] = true
				if cacheBudget > 0 && len(resident) > cacheBudget {
					reclaim(resident, evicted, len(resident)-cacheBudget)
				}
			}
		}
		sumPages += int64(len(winPages))
		if len(winPages) > sc.PeakWindowPages {
			sc.PeakWindowPages = len(winPages)
		}
	}
	if n := len(g.WindowLog); n > 0 {
		sc.AvgWindowPages = float64(sumPages) / float64(n)
	}
	sc.PredictedColdPages = int64(len(touched))
	return sc, nil
}

// reclaim evicts the n coldest resident pages (smallest stamp, ties by
// page index — deterministic, matching osim's LRU tie-break).
func reclaim(resident map[int64]int64, evicted map[int64]bool, n int) {
	if n <= 0 || len(resident) == 0 {
		return
	}
	type pageUse struct {
		page  int64
		stamp int64
	}
	all := make([]pageUse, 0, len(resident))
	for p, s := range resident {
		all = append(all, pageUse{p, s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].stamp != all[j].stamp {
			return all[i].stamp < all[j].stamp
		}
		return all[i].page < all[j].page
	})
	if n > len(all) {
		n = len(all)
	}
	for _, v := range all[:n] {
		delete(resident, v.page)
		evicted[v.page] = true
	}
}

// RefaultFactors fills PredictedRefaultFactor on each card relative to
// the baseline card: (baseline+1)/(card+1), additively smoothed so zero
// predictions rank sensibly (>1 = fewer predicted refaults than the
// baseline layout). The smoothing is monotone, so factor ordering equals
// predicted-refault ordering.
func RefaultFactors(baseline *Scorecard, cards []*Scorecard) {
	if baseline == nil {
		return
	}
	for _, c := range cards {
		if c == nil {
			continue
		}
		c.PredictedRefaultFactor = float64(baseline.PredictedRefaults+1) / float64(c.PredictedRefaults+1)
	}
}
