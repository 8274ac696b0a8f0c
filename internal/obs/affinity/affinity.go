// Package affinity records temporal symbol co-access affinity from the
// simulated page-event streams: which CUs and heap objects are hot
// *together* over time, not just which faulted first. First-touch order
// (what the profile-guided layouts of the paper consume) is enough to
// compact the cold-start path, but the graph-based layouts — C3-style
// balanced partitioning and ext-TSP ordering (Newell & Pupyrev) — need an
// affinity signal: edge weights between symbols that share working-set
// windows.
//
// The pieces: a Recorder observes one osim mapping's page-event stream,
// folding the coarse page accesses into a sliding co-residency window and
// a weighted symbol×symbol graph (co-occurrence edges within a window,
// transition edges between consecutive accesses, per-window decay,
// bounded edge budget); a Graph
// is the serializable result; Score (score.go) turns graph × layout into
// a per-strategy scorecard — the static proxy for MeasureServe. Codecs
// live in codec.go (JSON), dot.go (GraphViz), trace.go (Chrome trace).
//
// Every event charges exactly one node — the symbol containing the
// event's byte offset, falling back to the page's representative symbol
// when the offset lands in an uncovered gap — so node sums reconcile
// exactly with osim's mapping and file counters: the same contract the
// attrib recorder enforces per section, asserted by tests, not assumed.
// Offset resolution matters for the graph-based layouts: a page-granular
// graph names one representative CU per touched page, so a layout baked
// from it covers a fraction of the executed code and degrades toward the
// identity order for everything else.
//
// Recording cost: an access event costs a symbol lookup (a binary search)
// and at most one edge update. A window rotation decays every live edge
// in one pass over the edge slice, folds the window's co-occurrence pairs
// (quadratic in its distinct symbols, at most MaxWindowSymbols) and
// reuses the oldest slot of the window ring. Past the edge budget, prune
// finds the survivors by a linear-time selection over the live edges and
// sorts only the victims; no window sorts the whole graph.
package affinity

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"

	"nimage/internal/obs/attrib"
	"nimage/internal/osim"
)

// GraphSchema versions the serialized affinity document.
const GraphSchema = "nimage.affinity/v1"

// Config bounds the recorder's memory and sets its temporal resolution.
// The zero value means "use defaults" (DefaultConfig).
type Config struct {
	// WindowEvents is the co-residency window length in coarse access
	// events: symbols accessed within the same window gain co-occurrence
	// edge weight.
	WindowEvents int `json:"window_events"`
	// MaxEdges bounds the edge set; when exceeded after a window
	// rotation, the lightest edges are pruned (their raw counts move to
	// the Pruned* totals so reconciliation stays exact).
	MaxEdges int `json:"max_edges"`
	// Decay multiplies every edge weight at each window rotation, so the
	// weights favour recent co-access (serve-mode bursts) over startup
	// history. Raw Co/Trans counts are never decayed.
	Decay float64 `json:"decay"`
	// MaxWindows bounds the retained window log (the Chrome-trace track
	// and the scorecard replay input); older windows are dropped and
	// counted in DroppedWindows.
	MaxWindows int `json:"max_windows"`
	// MaxWindowSymbols caps the distinct symbols recorded per window
	// (the co-occurrence fold is quadratic in it). Overflowing accesses
	// still count; their window membership is dropped and counted in
	// OverflowEvents.
	MaxWindowSymbols int `json:"max_window_symbols"`
}

// DefaultConfig returns the recorder defaults.
func DefaultConfig() Config {
	return Config{WindowEvents: 32, MaxEdges: 4096, Decay: 0.95, MaxWindows: 256, MaxWindowSymbols: 128}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.WindowEvents <= 0 {
		c.WindowEvents = d.WindowEvents
	}
	if c.MaxEdges <= 0 {
		c.MaxEdges = d.MaxEdges
	}
	if !(c.Decay > 0 && c.Decay <= 1) {
		c.Decay = d.Decay
	}
	if c.MaxWindows <= 0 {
		c.MaxWindows = d.MaxWindows
	}
	if c.MaxWindowSymbols <= 0 {
		c.MaxWindowSymbols = d.MaxWindowSymbols
	}
	return c
}

// KindUnattributed marks pseudo-nodes for pages no indexed symbol covers.
const KindUnattributed = "unattributed"

// Node is one vertex of the affinity graph: a layout symbol (or the
// per-section pseudo-symbol for uncovered pages) with its event counts.
type Node struct {
	// Name, Type, Kind, Section, Off, Len mirror attrib.Symbol; names are
	// build-stable, so graphs score against other layouts of the same
	// program by name.
	Name    string `json:"name"`
	Type    string `json:"type,omitempty"`
	Kind    string `json:"kind"`
	Section string `json:"section,omitempty"`
	Off     int64  `json:"off"`
	Len     int64  `json:"len"`
	// Accesses counts coarse page-access events charged to the node.
	Accesses int64 `json:"accesses"`
	// Faults/Major/Refaults/Evictions are the node's share of the osim
	// event streams. Each event charges exactly one node, so these sum to
	// the mapping and file counters.
	Faults    int64 `json:"faults"`
	Major     int64 `json:"major"`
	Refaults  int64 `json:"refaults,omitempty"`
	Evictions int64 `json:"evictions,omitempty"`
	// FirstClock is the OS access clock of the node's first access
	// (0 = never accessed, e.g. evicted without being touched here).
	FirstClock int64 `json:"first_clock,omitempty"`
}

// Edge is one undirected affinity edge between Nodes[A] and Nodes[B]
// (A < B). Weight is the decayed affinity used for ranking and scoring;
// Co and Trans are the raw (undecayed) event counts, which reconcile
// exactly against the graph totals.
type Edge struct {
	A      int32   `json:"a"`
	B      int32   `json:"b"`
	Weight float64 `json:"weight"`
	Co     int64   `json:"co"`
	Trans  int64   `json:"trans,omitempty"`
}

// Window is one completed co-residency window of the log: the distinct
// nodes accessed during WindowEvents consecutive coarse accesses. A
// pressure reclaim (osim.EvictPressure — the serve harness's inter-burst
// eviction) force-rotates the window in progress, so windows never span
// a reclaim boundary.
type Window struct {
	// Start is the OS access clock at the window's first event.
	Start int64 `json:"start_clock"`
	// Events is the window's coarse access count (the last window of a
	// run, or one cut short by a pressure reclaim, may be shorter than
	// Config.WindowEvents).
	Events int `json:"events"`
	// Pressure reports that a pressure reclaim immediately preceded the
	// window — the scorecard replay applies its inter-window reclaim at
	// exactly these boundaries, mirroring the measured run's bursts.
	Pressure bool `json:"pressure,omitempty"`
	// Nodes indexes Graph.Nodes, in first-access order.
	Nodes []int32 `json:"nodes"`
}

// Graph is the serializable affinity result of one (or several merged)
// recorded runs.
type Graph struct {
	Schema string `json:"schema"`
	// Workload and Layout describe what was recorded ("serve-api", "cu").
	Workload string `json:"workload,omitempty"`
	Layout   string `json:"layout,omitempty"`
	FileSize int64  `json:"file_size"`
	Pages    int    `json:"pages"`
	Config   Config `json:"config"`

	// Stream totals. Faults/Major/Refaults reconcile with the observed
	// osim.Mapping, Evictions with the file; AccessEvents counts coarse
	// accesses, Windows completed windows.
	AccessEvents int64 `json:"access_events"`
	Faults       int64 `json:"faults"`
	Major        int64 `json:"major"`
	Refaults     int64 `json:"refaults,omitempty"`
	Evictions    int64 `json:"evictions,omitempty"`
	Windows      int64 `json:"windows"`

	// Edge-event totals: every transition and co-occurrence lands on
	// exactly one edge or in the Pruned* buckets, so
	// sum(Edges.Trans)+PrunedTrans == Transitions and
	// sum(Edges.Co)+PrunedCo == Cooccurrences.
	Transitions   int64 `json:"transitions"`
	Cooccurrences int64 `json:"cooccurrences"`
	PrunedEdges   int64 `json:"pruned_edges,omitempty"`
	PrunedCo      int64 `json:"pruned_co,omitempty"`
	PrunedTrans   int64 `json:"pruned_trans,omitempty"`
	// PrunedWeight is the decayed weight removed by edge-budget pruning
	// (reported so bounded recording is never a silent truncation).
	PrunedWeight float64 `json:"pruned_weight,omitempty"`
	// DroppedWindows counts windows aged out of the bounded log;
	// OverflowEvents accesses whose window membership was dropped by
	// MaxWindowSymbols.
	DroppedWindows int64 `json:"dropped_windows,omitempty"`
	OverflowEvents int64 `json:"overflow_events,omitempty"`

	// Sections reconciles with osim's per-section fault and eviction
	// counters, exactly like the attribution table's totals.
	Sections []attrib.SectionTotal `json:"sections"`
	// Nodes lists every symbol with any activity; Edges is sorted by
	// Weight descending (ties: A, then B ascending).
	Nodes []Node `json:"nodes"`
	Edges []Edge `json:"edges"`
	// WindowLog is the retained co-residency window history, oldest
	// first — the input of the scorecard replay and the trace export.
	WindowLog []Window `json:"window_log,omitempty"`
}

// Section returns the named section total (zero value if absent).
func (g *Graph) Section(name string) attrib.SectionTotal {
	for _, s := range g.Sections {
		if s.Section == name {
			return s
		}
	}
	return attrib.SectionTotal{Section: name}
}

// Node returns the named node and whether it exists.
func (g *Graph) Node(name string) (Node, bool) {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n, true
		}
	}
	return Node{}, false
}

// TotalWeight sums the surviving edge weights plus the pruned weight —
// the graph's full recorded affinity mass.
func (g *Graph) TotalWeight() float64 {
	w := g.PrunedWeight
	for _, e := range g.Edges {
		w += e.Weight
	}
	return w
}

// nodeCounts is one node's share of the event streams (see Node).
type nodeCounts struct {
	accesses, faults, major, refaults, evictions, firstClock int64
}

// edgeKey packs an edge's endpoints (a < b) into one map key.
func edgeKey(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// compareEdges orders edges by weight descending, then A, then B. Every
// (A, B) pair of a graph or of the recorder's store is unique, so the
// order is total and needs no stable sort.
func compareEdges(x, y *Edge) int {
	if x.Weight != y.Weight {
		if x.Weight > y.Weight {
			return -1
		}
		return 1
	}
	if x.A != y.A {
		return cmp.Compare(x.A, y.A)
	}
	return cmp.Compare(x.B, y.B)
}

// Recorder folds one mapping's page-event stream into an affinity graph.
// It is an osim.PageObserver; attach it with Mapping.Observe before the
// first touch. Not safe for concurrent use (one recorder per mapping).
type Recorder struct {
	ix  *attrib.Index
	cfg Config

	// counts tallies every node by id: the index's symbols, then the
	// pseudo-nodes, whose names pseudoNodes holds. Graph names the
	// symbol nodes from the index.
	counts      []nodeCounts
	pseudoNodes []Node
	pageRep     []int32 // page -> node id of the page's first symbol, -1 if none
	pseudo      map[int]int32

	// edges stores the edges over recorder node ids, a free slot having
	// A = -1; slot maps an edgeKey to its slot, and free lists the slots
	// prune emptied, which new edges reuse.
	edges    []Edge
	slot     map[uint64]int32
	free     []int32
	order    []int32 // prune's scratch: the live slots
	sections *attrib.SectionTally

	accessEvents, faults, major, refaults, evictions int64
	transitions, cooccur, windows                    int64
	droppedWindows, overflowEvents                   int64
	prunedEdges, prunedCo, prunedTrans               int64
	prunedWeight                                     float64

	winNodes []int32
	winSeen  []bool // by node id: the node is in winNodes
	winStart int64
	// curPressure marks the window in progress as preceded by a pressure
	// reclaim (set when EvictPressure force-rotates the previous one).
	curPressure bool
	winEvents   int
	prevNode    int32
	// log is a ring of at most MaxWindows windows. Once it is full,
	// logHead is the slot of the oldest window, the next one overwritten.
	log     []Window
	logHead int

	finished bool
}

// NewRecorder creates a recorder over the layout index with the given
// config (zero value = defaults).
func NewRecorder(ix *attrib.Index, cfg Config) *Recorder {
	syms := ix.Symbols()
	r := &Recorder{
		ix:       ix,
		cfg:      cfg.withDefaults(),
		counts:   make([]nodeCounts, len(syms)),
		pageRep:  make([]int32, ix.Pages()),
		slot:     make(map[uint64]int32),
		sections: attrib.NewSectionTally(ix),
		winSeen:  make([]bool, len(syms)),
		prevNode: -1,
	}
	// A page's representative is the first symbol, in offset order, that
	// overlaps it. One sweep over the symbols finds them all: symbols
	// start in offset order, so no later symbol is the first on a page
	// below the furthest end seen so far.
	for p := range r.pageRep {
		r.pageRep[p] = -1
	}
	next := 0 // pages below next are settled
	for i, s := range syms {
		if s.Len <= 0 || s.Off+s.Len <= 0 {
			continue
		}
		first := max(int(s.Off/osim.PageSize), next)
		last := min(int((s.Off+s.Len-1)/osim.PageSize), len(r.pageRep)-1)
		for p := first; p <= last; p++ {
			r.pageRep[p] = int32(i)
		}
		next = max(next, last+1)
	}
	return r
}

// nodeFor resolves an event to the single node it charges: the symbol
// containing the event's byte offset, else the page's representative
// symbol (the first symbol overlapping it — e.g. when the offset lands in
// padding between symbols), else the per-section pseudo-node for pages no
// indexed symbol covers.
func (r *Recorder) nodeFor(off int64, page, section int) int32 {
	if si := r.ix.SymbolAt(off); si >= 0 {
		return int32(si)
	}
	if page >= 0 && page < len(r.pageRep) {
		if id := r.pageRep[page]; id >= 0 {
			return id
		}
	}
	if id, ok := r.pseudo[section]; ok {
		return id
	}
	id := int32(len(r.counts))
	sec := r.ix.SectionName(section)
	r.pseudoNodes = append(r.pseudoNodes, Node{
		Name: "<unattributed:" + sec + ">", Kind: KindUnattributed, Section: sec,
	})
	r.counts = append(r.counts, nodeCounts{})
	r.winSeen = append(r.winSeen, false)
	if r.pseudo == nil {
		r.pseudo = make(map[int]int32)
	}
	r.pseudo[section] = id
	return id
}

// OnPageEvent charges the event to the single node it resolves to.
// Faults and evictions also go to the section totals.
func (r *Recorder) OnPageEvent(ev osim.PageEvent) {
	r.sections.Add(ev)
	switch ev.Kind {
	case osim.PageAccess:
		r.access(ev)
	case osim.PageFault:
		r.fault(ev)
	case osim.PageEvict:
		r.evict(ev)
	}
}

// access folds one coarse page access into the window and the transition
// edges.
func (r *Recorder) access(ev osim.PageEvent) {
	id := r.nodeFor(ev.Off, ev.Page, ev.Section)
	n := &r.counts[id]
	n.accesses++
	if n.firstClock == 0 {
		n.firstClock = ev.Clock
	}
	r.accessEvents++
	if r.winEvents == 0 {
		r.winStart = ev.Clock
	}
	if !r.winSeen[id] {
		if len(r.winNodes) < r.cfg.MaxWindowSymbols {
			r.winSeen[id] = true
			r.winNodes = append(r.winNodes, id)
		} else {
			r.overflowEvents++
		}
	}
	if r.prevNode >= 0 && r.prevNode != id {
		e := r.edge(r.prevNode, id)
		e.Weight++
		e.Trans++
		r.transitions++
	}
	r.prevNode = id
	r.winEvents++
	if r.winEvents >= r.cfg.WindowEvents {
		r.rotate()
	}
}

// fault charges one fault to the faulting offset's node.
func (r *Recorder) fault(ev osim.PageEvent) {
	r.faults++
	n := &r.counts[r.nodeFor(ev.Off, ev.Page, ev.Section)]
	n.faults++
	if ev.Major {
		r.major++
		n.major++
	}
	if ev.Refault {
		r.refaults++
		n.refaults++
	}
}

// evict charges one eviction. A pressure eviction also closes the window
// in progress and flags the next one, so the window log carries the run's
// reclaim boundaries for the scorecard replay.
func (r *Recorder) evict(ev osim.PageEvent) {
	r.evictions++
	r.counts[r.nodeFor(ev.Off, ev.Page, ev.Section)].evictions++
	if ev.Cause == osim.EvictPressure {
		r.rotate()
		r.curPressure = true
	}
}

// edge returns the edge between a and b, creating it in a free slot, or
// at the end of the store, on first use. The pointer is valid until the
// next edge call.
func (r *Recorder) edge(a, b int32) *Edge {
	if a > b {
		a, b = b, a
	}
	k := edgeKey(a, b)
	if s, ok := r.slot[k]; ok {
		return &r.edges[s]
	}
	var s int32
	if n := len(r.free); n > 0 {
		s = r.free[n-1]
		r.free = r.free[:n-1]
		r.edges[s] = Edge{A: a, B: b}
	} else {
		s = int32(len(r.edges))
		r.edges = append(r.edges, Edge{A: a, B: b})
	}
	r.slot[k] = s
	return &r.edges[s]
}

// rotate completes the current window: age every edge by the decay,
// fold the window's co-occurrence pairs in, log the window, and enforce
// the edge budget.
func (r *Recorder) rotate() {
	if r.winEvents == 0 {
		return
	}
	for i := range r.edges {
		r.edges[i].Weight *= r.cfg.Decay
	}
	for i := 0; i < len(r.winNodes); i++ {
		for j := i + 1; j < len(r.winNodes); j++ {
			e := r.edge(r.winNodes[i], r.winNodes[j])
			e.Weight++
			e.Co++
			r.cooccur++
		}
	}
	r.windows++
	w := Window{Start: r.winStart, Events: r.winEvents, Pressure: r.curPressure}
	if len(r.log) < r.cfg.MaxWindows {
		w.Nodes = append([]int32(nil), r.winNodes...)
		r.log = append(r.log, w)
	} else {
		// The ring is full: the window replaces the oldest, reusing its
		// node buffer.
		w.Nodes = append(r.log[r.logHead].Nodes[:0], r.winNodes...)
		r.log[r.logHead] = w
		r.logHead = (r.logHead + 1) % len(r.log)
		r.droppedWindows++
	}
	r.curPressure = false
	r.prune()
	for _, id := range r.winNodes {
		r.winSeen[id] = false
	}
	r.winNodes = r.winNodes[:0]
	r.winEvents = 0
}

// prune enforces the edge budget deterministically: the first MaxEdges
// edges by weight descending (ties by node ids) survive; the rest move
// their raw counts into the Pruned* buckets so the totals stay exact. A
// selection over the live slots finds the survivors, and only the victims
// are sorted, so their weights are summed in rank order.
func (r *Recorder) prune() {
	if len(r.slot) <= r.cfg.MaxEdges {
		return
	}
	live := r.order[:0]
	for i := range r.edges {
		if r.edges[i].A >= 0 {
			live = append(live, int32(i))
		}
	}
	r.order = live
	bySlot := func(x, y int32) int { return compareEdges(&r.edges[x], &r.edges[y]) }
	selectFirst(live, r.cfg.MaxEdges, bySlot)
	victims := live[r.cfg.MaxEdges:]
	slices.SortFunc(victims, bySlot)
	for _, s := range victims {
		e := &r.edges[s]
		r.prunedEdges++
		r.prunedWeight += e.Weight
		r.prunedCo += e.Co
		r.prunedTrans += e.Trans
		delete(r.slot, edgeKey(e.A, e.B))
		*e = Edge{A: -1, B: -1}
		r.free = append(r.free, s)
	}
}

// selectFirst reorders s so that s[:k] holds its k least elements under
// compare, a total order, in no particular order (0 <= k < len(s)). It is
// quickselect with a median-of-three pivot, in expected linear time; a
// run that keeps partitioning badly falls back to sorting what is left.
func selectFirst(s []int32, k int, compare func(x, y int32) int) {
	lo, hi := 0, len(s)
	for budget := 2 * bits.Len(uint(len(s))); hi-lo > 1; budget-- {
		if budget == 0 {
			slices.SortFunc(s[lo:hi], compare)
			return
		}
		// Order s[lo], s[mid], s[hi-1]; their median becomes the pivot,
		// parked at hi-1 while the rest is partitioned around it.
		mid := lo + (hi-lo)/2
		if compare(s[mid], s[lo]) < 0 {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if compare(s[hi-1], s[mid]) < 0 {
			s[hi-1], s[mid] = s[mid], s[hi-1]
			if compare(s[mid], s[lo]) < 0 {
				s[mid], s[lo] = s[lo], s[mid]
			}
		}
		s[mid], s[hi-1] = s[hi-1], s[mid]
		pivot, p := s[hi-1], lo
		for i := lo; i < hi-1; i++ {
			if compare(s[i], pivot) < 0 {
				s[i], s[p] = s[p], s[i]
				p++
			}
		}
		s[p], s[hi-1] = s[hi-1], s[p]
		switch {
		case p == k:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p
		}
	}
}

// Finish completes the trailing partial window. Call once after the run;
// Graph calls it implicitly.
func (r *Recorder) Finish() {
	if r.finished {
		return
	}
	r.finished = true
	r.rotate()
}

// Graph assembles the affinity graph: active nodes (any event charged),
// edges sorted by weight descending, and the retained window log, all
// re-indexed to the emitted node order.
func (r *Recorder) Graph() *Graph {
	r.Finish()
	g := &Graph{
		Schema:         GraphSchema,
		FileSize:       r.ix.FileSize,
		Pages:          r.ix.Pages(),
		Config:         r.cfg,
		AccessEvents:   r.accessEvents,
		Faults:         r.faults,
		Major:          r.major,
		Refaults:       r.refaults,
		Evictions:      r.evictions,
		Windows:        r.windows,
		Transitions:    r.transitions,
		Cooccurrences:  r.cooccur,
		PrunedEdges:    r.prunedEdges,
		PrunedCo:       r.prunedCo,
		PrunedTrans:    r.prunedTrans,
		PrunedWeight:   r.prunedWeight,
		DroppedWindows: r.droppedWindows,
		OverflowEvents: r.overflowEvents,
		Sections:       r.sections.Totals(),
	}
	syms := r.ix.Symbols()
	remap := make([]int32, len(r.counts))
	for i, c := range r.counts {
		if c.accesses == 0 && c.faults == 0 && c.evictions == 0 {
			remap[i] = -1
			continue
		}
		var n Node
		if i < len(syms) {
			s := &syms[i]
			n = Node{Name: s.Name, Type: s.Type, Kind: s.Kind, Section: s.Section, Off: s.Off, Len: s.Len}
		} else {
			n = r.pseudoNodes[i-len(syms)]
		}
		n.Accesses, n.Faults, n.Major = c.accesses, c.faults, c.major
		n.Refaults, n.Evictions, n.FirstClock = c.refaults, c.evictions, c.firstClock
		remap[i] = int32(len(g.Nodes))
		g.Nodes = append(g.Nodes, n)
	}
	if len(r.slot) > 0 {
		g.Edges = make([]Edge, 0, len(r.slot))
	}
	for _, e := range r.edges {
		if e.A < 0 {
			continue
		}
		e.A, e.B = remap[e.A], remap[e.B]
		g.Edges = append(g.Edges, e)
	}
	rankEdges(g.Edges)
	for i := range r.log {
		w := r.log[(r.logHead+i)%len(r.log)]
		nw := Window{Start: w.Start, Events: w.Events, Pressure: w.Pressure, Nodes: make([]int32, len(w.Nodes))}
		for i, id := range w.Nodes {
			nw.Nodes[i] = remap[id]
		}
		g.WindowLog = append(g.WindowLog, nw)
	}
	return g
}

// rankEdges sorts edges by compareEdges.
func rankEdges(es []Edge) {
	slices.SortFunc(es, func(x, y Edge) int { return compareEdges(&x, &y) })
}

// Merge combines affinity graphs — e.g. the per-iteration graphs of one
// eval entry — by node name: node counts add, edges add weight and raw
// counts keyed by their endpoint names, window logs concatenate in
// argument order (re-bounded by the merged config). Nil graphs are
// skipped. Node offsets come from the first graph naming the node, so
// merging graphs of different layouts is meaningful only for the
// name-keyed counts.
func Merge(graphs ...*Graph) *Graph {
	out := &Graph{Schema: GraphSchema}
	nodeIdx := make(map[string]int32)
	secIdx := make(map[string]int)
	type nameEdge struct{ a, b int32 }
	edgeIdx := make(map[nameEdge]int)
	for _, g := range graphs {
		if g == nil {
			continue
		}
		if out.Workload == "" {
			out.Workload, out.Layout = g.Workload, g.Layout
		}
		if out.Config == (Config{}) {
			out.Config = g.Config
		}
		if g.FileSize > out.FileSize {
			out.FileSize = g.FileSize
		}
		if g.Pages > out.Pages {
			out.Pages = g.Pages
		}
		out.AccessEvents += g.AccessEvents
		out.Faults += g.Faults
		out.Major += g.Major
		out.Refaults += g.Refaults
		out.Evictions += g.Evictions
		out.Windows += g.Windows
		out.Transitions += g.Transitions
		out.Cooccurrences += g.Cooccurrences
		out.PrunedEdges += g.PrunedEdges
		out.PrunedCo += g.PrunedCo
		out.PrunedTrans += g.PrunedTrans
		out.PrunedWeight += g.PrunedWeight
		out.DroppedWindows += g.DroppedWindows
		out.OverflowEvents += g.OverflowEvents
		for _, s := range g.Sections {
			i, ok := secIdx[s.Section]
			if !ok {
				secIdx[s.Section] = len(out.Sections)
				out.Sections = append(out.Sections, s)
				continue
			}
			t := &out.Sections[i]
			t.Major += s.Major
			t.Minor += s.Minor
			t.IONanos += s.IONanos
			t.Evicted += s.Evicted
			t.Refaults += s.Refaults
		}
		local := make([]int32, len(g.Nodes))
		for i, n := range g.Nodes {
			id, ok := nodeIdx[n.Name]
			if !ok {
				id = int32(len(out.Nodes))
				nodeIdx[n.Name] = id
				out.Nodes = append(out.Nodes, n)
				local[i] = id
				continue
			}
			local[i] = id
			m := &out.Nodes[id]
			m.Accesses += n.Accesses
			m.Faults += n.Faults
			m.Major += n.Major
			m.Refaults += n.Refaults
			m.Evictions += n.Evictions
			if n.FirstClock > 0 && (m.FirstClock == 0 || n.FirstClock < m.FirstClock) {
				m.FirstClock = n.FirstClock
			}
		}
		for _, e := range g.Edges {
			a, b := local[e.A], local[e.B]
			if a > b {
				a, b = b, a
			}
			k := nameEdge{a, b}
			i, ok := edgeIdx[k]
			if !ok {
				edgeIdx[k] = len(out.Edges)
				out.Edges = append(out.Edges, Edge{A: a, B: b, Weight: e.Weight, Co: e.Co, Trans: e.Trans})
				continue
			}
			out.Edges[i].Weight += e.Weight
			out.Edges[i].Co += e.Co
			out.Edges[i].Trans += e.Trans
		}
		for _, w := range g.WindowLog {
			nw := Window{Start: w.Start, Events: w.Events, Pressure: w.Pressure, Nodes: make([]int32, len(w.Nodes))}
			for i, id := range w.Nodes {
				nw.Nodes[i] = local[id]
			}
			out.WindowLog = append(out.WindowLog, nw)
		}
	}
	slices.SortFunc(out.Sections, func(x, y attrib.SectionTotal) int { return strings.Compare(x.Section, y.Section) })
	rankEdges(out.Edges)
	cfg := out.Config.withDefaults()
	if len(out.WindowLog) > cfg.MaxWindows {
		out.DroppedWindows += int64(len(out.WindowLog) - cfg.MaxWindows)
		out.WindowLog = append([]Window(nil), out.WindowLog[len(out.WindowLog)-cfg.MaxWindows:]...)
	}
	return out
}
