package core

import (
	"math"
	"sort"

	"nimage/internal/obs/affinity"
	"nimage/internal/obs/attrib"
)

// This file implements the two graph-based text layouts that consume the
// recorded affinity graph (internal/obs/affinity) instead of first-touch
// traces: a C3-style call-chain clustering (Hoag, Lee, Mestre, Pupyrev —
// "Optimizing Function Layout for Mobile Applications") and an
// ext-TSP-style ordering (Newell & Pupyrev — "Improved Basic Block
// Reordering"). Both generalize Pettis–Hansen's greedy edge coalescing
// over call edges to gain-driven chain merging over symbol-affinity
// edges; both return CU root signatures usable directly as a code
// profile, so the bake path and the .nimg recipe are unchanged.

const (
	// StrategyC3 lays text out by bottom-up chain merging with a locality
	// gain over co-occurrence edge weights, capped at a page-sized chain
	// budget (the balanced-partition flavour of C3).
	StrategyC3 = "c3"
	// StrategyExtTSP lays text out by chain merging maximizing the
	// ext-TSP score over transition edges.
	StrategyExtTSP = "ext-tsp"
)

const (
	// c3MergeLimit caps a C3 chain's total size. Keeping chains around
	// page granularity means inter-burst reclaim evicts whole cold chains
	// instead of splitting hot ones across evicted pages.
	c3MergeLimit = 2 * 4096
	// extTSPHorizon is the byte distance at which a transition edge's
	// score contribution decays to zero; one page, since refaults are
	// counted per page.
	extTSPHorizon = 4096.0
)

// symNode is one text symbol eligible for graph-based ordering.
type symNode struct {
	name  string
	size  int64
	heat  int64 // coarse access events charged to the symbol
	clock int64 // first-access clock (maxInt64 if never accessed)
}

// symChain is a chain of symbols being coalesced, the graph-layout
// analogue of ph.go's phChain.
type symChain struct {
	id    int // creation order, for deterministic pair iteration
	nodes []int
	size  int64
	heat  int64
	clock int64 // earliest first-access clock of any member
}

// textNodes extracts the orderable symbols from the graph: CU symbols
// only — the header, native tail, and heap objects have fixed or
// heap-strategy-owned placement — with a dense index remap.
func textNodes(g *affinity.Graph) ([]symNode, map[int32]int) {
	var nodes []symNode
	remap := make(map[int32]int)
	for i, n := range g.Nodes {
		if n.Kind != attrib.KindCU {
			continue
		}
		clock := n.FirstClock
		if clock == 0 {
			// Never actually accessed (e.g. evicted untouched): no
			// first-touch position, so it sorts after every touched chain.
			clock = math.MaxInt64
		}
		remap[int32(i)] = len(nodes)
		nodes = append(nodes, symNode{name: n.Name, size: n.Len, heat: n.Accesses, clock: clock})
	}
	return nodes, remap
}

// symEdge is an undirected edge between dense node indices (a < b).
type symEdge struct {
	a, b int
	w    float64
}

// denseEdges folds the graph's edge list onto the dense text nodes,
// weighting each edge by weight(e), dropping zero-weight and non-text
// edges, and returning a deterministic (a, b)-sorted slice.
func denseEdges(g *affinity.Graph, remap map[int32]int, weight func(affinity.Edge) float64) []symEdge {
	acc := make(map[[2]int]float64)
	for _, e := range g.Edges {
		a, oka := remap[e.A]
		b, okb := remap[e.B]
		if !oka || !okb || a == b {
			continue
		}
		if w := weight(e); w > 0 {
			if a > b {
				a, b = b, a
			}
			acc[[2]int{a, b}] += w
		}
	}
	edges := make([]symEdge, 0, len(acc))
	for k, w := range acc {
		edges = append(edges, symEdge{a: k[0], b: k[1], w: w})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})
	return edges
}

// emitChains flattens chains into symbol names in first-touch order: the
// chain whose earliest member was accessed first comes first. Emitting by
// chain hotness (as ph.go does) optimizes burst residency but scatters
// the cold-start sequence — measured serve refaults count the whole run,
// and a layout that thrashes the page cache during startup gives back its
// burst win — so the clusters keep their temporal positions and only the
// intra-chain packing changes. Chains the recording never touched
// (first-clock-less) sort last, hottest first. Symbols the graph never
// saw keep their default order when OrderCUs appends unprofiled CUs.
func emitChains(chains []*symChain, nodes []symNode) []string {
	live := make([]*symChain, 0, len(chains))
	for _, c := range chains {
		if c != nil && len(c.nodes) > 0 {
			live = append(live, c)
		}
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].clock != live[j].clock {
			return live[i].clock < live[j].clock
		}
		if live[i].heat != live[j].heat {
			return live[i].heat > live[j].heat
		}
		return nodes[live[i].nodes[0]].name < nodes[live[j].nodes[0]].name
	})
	out := make([]string, 0, len(nodes))
	for _, c := range live {
		for _, v := range c.nodes {
			out = append(out, nodes[v].name)
		}
	}
	return out
}

// C3Order computes a text layout from the affinity graph à la call-chain
// clustering: walk symbols hottest-first, merging each symbol's chain
// after the chain of its strongest co-occurrence neighbour among
// already-placed (hotter) symbols — the locality gain of a merge is the
// co-occurrence weight it turns into intra-chain adjacency — unless the
// merged chain would overflow the chain budget. Chains are emitted in
// first-touch order (see emitChains).
func C3Order(g *affinity.Graph) []string {
	nodes, remap := textNodes(g)
	if len(nodes) == 0 {
		return nil
	}
	edges := denseEdges(g, remap, func(e affinity.Edge) float64 { return e.Weight })
	w := make(map[[2]int]float64, len(edges))
	nbrs := make([][]int, len(nodes))
	for _, e := range edges {
		w[[2]int{e.a, e.b}] = e.w
		nbrs[e.a] = append(nbrs[e.a], e.b)
		nbrs[e.b] = append(nbrs[e.b], e.a)
	}
	weightOf := func(u, v int) float64 {
		if u > v {
			u, v = v, u
		}
		return w[[2]int{u, v}]
	}

	// Hottest-first walk order; rank breaks heat ties deterministically.
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := nodes[order[i]], nodes[order[j]]
		if a.heat != b.heat {
			return a.heat > b.heat
		}
		return a.name < b.name
	})
	rank := make([]int, len(nodes))
	for r, v := range order {
		rank[v] = r
	}

	chains := make([]*symChain, len(nodes))
	chainOf := make([]*symChain, len(nodes))
	for i, n := range nodes {
		chains[i] = &symChain{id: i, nodes: []int{i}, size: n.size, heat: n.heat, clock: n.clock}
		chainOf[i] = chains[i]
	}
	for _, v := range order {
		// The strongest already-placed neighbour is v's predecessor.
		best, bestW := -1, 0.0
		for _, u := range nbrs[v] {
			if rank[u] >= rank[v] {
				continue
			}
			wu := weightOf(u, v)
			if best < 0 || wu > bestW || (wu == bestW && nodes[u].name < nodes[best].name) {
				best, bestW = u, wu
			}
		}
		if best < 0 {
			continue
		}
		ca, cb := chainOf[best], chainOf[v]
		if ca == cb || ca.size+cb.size > c3MergeLimit {
			continue
		}
		ca.nodes = append(ca.nodes, cb.nodes...)
		ca.size += cb.size
		ca.heat += cb.heat
		if cb.clock < ca.clock {
			ca.clock = cb.clock
		}
		for _, m := range cb.nodes {
			chainOf[m] = ca
		}
		chains[cb.id] = nil
	}
	return emitChains(chains, nodes)
}

// ExtTSPOrder computes a text layout maximizing the ext-TSP score over
// the graph's transition edges: every symbol starts as its own chain, and
// each round merges the chain pair and orientation with the largest score
// gain until no merge gains. An edge scores its full transition weight
// when its endpoints are byte-adjacent and decays linearly to zero as the
// gap between them approaches the one-page horizon. Chains are emitted in
// first-touch order (see emitChains).
func ExtTSPOrder(g *affinity.Graph) []string {
	nodes, remap := textNodes(g)
	if len(nodes) == 0 {
		return nil
	}
	edges := denseEdges(g, remap, func(e affinity.Edge) float64 { return float64(e.Trans) })
	adj := make([][]symEdge, len(nodes))
	for _, e := range edges {
		adj[e.a] = append(adj[e.a], e)
		adj[e.b] = append(adj[e.b], e)
	}

	chains := make([]*symChain, len(nodes))
	chainOf := make([]*symChain, len(nodes))
	for i, n := range nodes {
		chains[i] = &symChain{id: i, nodes: []int{i}, size: n.size, heat: n.heat, clock: n.clock}
		chainOf[i] = chains[i]
	}

	// score sums each intra-sequence edge's weight scaled by its byte-gap
	// proximity. Offsets are recomputed per call; chains are small and
	// merging is O(chains²) rounds at most, which the bounded edge budget
	// keeps cheap.
	off := make([]int64, len(nodes))
	score := func(seq []int) float64 {
		var at int64
		for _, v := range seq {
			off[v] = at
			at += nodes[v].size
		}
		in := make(map[int]bool, len(seq))
		for _, v := range seq {
			in[v] = true
		}
		var s float64
		for _, v := range seq {
			for _, e := range adj[v] {
				u := e.a + e.b - v
				// Count each edge once, from its earlier-placed endpoint.
				if !in[u] || off[u] < off[v] || (off[u] == off[v] && u < v) {
					continue
				}
				gap := float64(off[u] - (off[v] + nodes[v].size))
				if gap < 0 {
					gap = 0
				}
				if gap < extTSPHorizon {
					s += e.w * (1 - gap/extTSPHorizon)
				}
			}
		}
		return s
	}
	concat := func(a, b []int, revA, revB bool) []int {
		out := make([]int, 0, len(a)+len(b))
		appendSeq := func(seq []int, rev bool) {
			if rev {
				for i := len(seq) - 1; i >= 0; i-- {
					out = append(out, seq[i])
				}
			} else {
				out = append(out, seq...)
			}
		}
		appendSeq(a, revA)
		appendSeq(b, revB)
		return out
	}

	// Cross-chain connectivity, by chain creation id (a < b).
	links := make(map[[2]int]bool)
	linkKey := func(ca, cb *symChain) [2]int {
		if ca.id > cb.id {
			ca, cb = cb, ca
		}
		return [2]int{ca.id, cb.id}
	}
	for _, e := range edges {
		if ca, cb := chainOf[e.a], chainOf[e.b]; ca != cb {
			links[linkKey(ca, cb)] = true
		}
	}

	for len(links) > 0 {
		pairs := make([][2]int, 0, len(links))
		for k := range links {
			pairs = append(pairs, k)
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i][0] != pairs[j][0] {
				return pairs[i][0] < pairs[j][0]
			}
			return pairs[i][1] < pairs[j][1]
		})
		var bestPair [2]int
		var bestSeq []int
		bestGain := 0.0
		for _, p := range pairs {
			ca, cb := chains[p[0]], chains[p[1]]
			base := score(ca.nodes) + score(cb.nodes)
			for orient := 0; orient < 4; orient++ {
				seq := concat(ca.nodes, cb.nodes, orient&1 != 0, orient&2 != 0)
				if gain := score(seq) - base; gain > bestGain {
					bestGain, bestPair, bestSeq = gain, p, seq
				}
			}
		}
		if bestSeq == nil {
			break
		}
		ca, cb := chains[bestPair[0]], chains[bestPair[1]]
		ca.nodes = bestSeq
		ca.size += cb.size
		ca.heat += cb.heat
		if cb.clock < ca.clock {
			ca.clock = cb.clock
		}
		for _, m := range cb.nodes {
			chainOf[m] = ca
		}
		chains[cb.id] = nil
		// Rewire cb's links onto ca and drop the merged pair's own link.
		for k := range links {
			if k[0] == cb.id || k[1] == cb.id {
				delete(links, k)
				other := chains[k[0]+k[1]-cb.id]
				if other != nil && other != ca {
					links[linkKey(ca, other)] = true
				}
			}
		}
	}
	return emitChains(chains, nodes)
}
