package affinity_test

// The reference recorder: the affinity recorder as it was before its edge
// store became a slot slice, its pruning a selection and its window log a
// ring. Edges live in a map of pointers, every pruning window sorts the
// whole map, and Graph and Merge rank with a stable sort. The differential
// test (differential_test.go) requires the production recorder to emit
// the same graphs, weights bit for bit.

import (
	"sort"

	"nimage/internal/obs/affinity"
	"nimage/internal/obs/attrib"
	"nimage/internal/osim"
)

type refEdgeKey struct{ a, b int32 }

type refEdgeCount struct {
	weight float64
	co     int64
	trans  int64
}

type refRecorder struct {
	ix  *attrib.Index
	cfg affinity.Config

	nodes   []affinity.Node
	pageRep []int32
	pseudo  map[int]int32

	edges    map[refEdgeKey]*refEdgeCount
	sections *attrib.SectionTally

	accessEvents, faults, major, refaults, evictions int64
	transitions, cooccur, windows                    int64
	droppedWindows, overflowEvents                   int64
	prunedEdges, prunedCo, prunedTrans               int64
	prunedWeight                                     float64

	winNodes    []int32
	winSeen     map[int32]bool
	winStart    int64
	curPressure bool
	winEvents   int
	prevNode    int32
	log         []affinity.Window

	finished bool
}

// refWithDefaults is Config.withDefaults.
func refWithDefaults(c affinity.Config) affinity.Config {
	d := affinity.DefaultConfig()
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

func newRefRecorder(ix *attrib.Index, cfg affinity.Config) *refRecorder {
	r := &refRecorder{
		ix:       ix,
		cfg:      refWithDefaults(cfg),
		nodes:    make([]affinity.Node, len(ix.Symbols())),
		pageRep:  make([]int32, ix.Pages()),
		pseudo:   make(map[int]int32),
		edges:    make(map[refEdgeKey]*refEdgeCount),
		sections: attrib.NewSectionTally(ix),
		winSeen:  make(map[int32]bool),
		prevNode: -1,
	}
	for i, s := range ix.Symbols() {
		r.nodes[i] = affinity.Node{Name: s.Name, Type: s.Type, Kind: s.Kind, Section: s.Section, Off: s.Off, Len: s.Len}
	}
	for p := range r.pageRep {
		if syms := ix.SymbolsOnPage(p); len(syms) > 0 {
			r.pageRep[p] = int32(syms[0])
		} else {
			r.pageRep[p] = -1
		}
	}
	return r
}

func (r *refRecorder) nodeFor(off int64, page, section int) int32 {
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
	id := int32(len(r.nodes))
	sec := r.ix.SectionName(section)
	r.nodes = append(r.nodes, affinity.Node{
		Name: "<unattributed:" + sec + ">", Kind: affinity.KindUnattributed, Section: sec,
	})
	r.pseudo[section] = id
	return id
}

func (r *refRecorder) OnPageEvent(ev osim.PageEvent) {
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

func (r *refRecorder) access(ev osim.PageEvent) {
	id := r.nodeFor(ev.Off, ev.Page, ev.Section)
	n := &r.nodes[id]
	n.Accesses++
	if n.FirstClock == 0 {
		n.FirstClock = ev.Clock
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
		e.weight++
		e.trans++
		r.transitions++
	}
	r.prevNode = id
	r.winEvents++
	if r.winEvents >= r.cfg.WindowEvents {
		r.rotate()
	}
}

func (r *refRecorder) fault(ev osim.PageEvent) {
	r.faults++
	n := &r.nodes[r.nodeFor(ev.Off, ev.Page, ev.Section)]
	n.Faults++
	if ev.Major {
		r.major++
		n.Major++
	}
	if ev.Refault {
		r.refaults++
		n.Refaults++
	}
}

func (r *refRecorder) evict(ev osim.PageEvent) {
	r.evictions++
	r.nodes[r.nodeFor(ev.Off, ev.Page, ev.Section)].Evictions++
	if ev.Cause == osim.EvictPressure {
		r.rotate()
		r.curPressure = true
	}
}

func (r *refRecorder) edge(a, b int32) *refEdgeCount {
	if a > b {
		a, b = b, a
	}
	k := refEdgeKey{a, b}
	e := r.edges[k]
	if e == nil {
		e = &refEdgeCount{}
		r.edges[k] = e
	}
	return e
}

func (r *refRecorder) rotate() {
	if r.winEvents == 0 {
		return
	}
	for _, e := range r.edges {
		e.weight *= r.cfg.Decay
	}
	for i := 0; i < len(r.winNodes); i++ {
		for j := i + 1; j < len(r.winNodes); j++ {
			e := r.edge(r.winNodes[i], r.winNodes[j])
			e.weight++
			e.co++
			r.cooccur++
		}
	}
	r.windows++
	r.log = append(r.log, affinity.Window{
		Start:    r.winStart,
		Events:   r.winEvents,
		Pressure: r.curPressure,
		Nodes:    append([]int32(nil), r.winNodes...),
	})
	r.curPressure = false
	if len(r.log) > r.cfg.MaxWindows {
		n := copy(r.log, r.log[len(r.log)-r.cfg.MaxWindows:])
		r.log = r.log[:n]
		r.droppedWindows++
	}
	r.prune()
	r.winNodes = r.winNodes[:0]
	for k := range r.winSeen {
		delete(r.winSeen, k)
	}
	r.winEvents = 0
}

func (r *refRecorder) prune() {
	if len(r.edges) <= r.cfg.MaxEdges {
		return
	}
	type kv struct {
		k refEdgeKey
		e *refEdgeCount
	}
	all := make([]kv, 0, len(r.edges))
	for k, e := range r.edges {
		all = append(all, kv{k, e})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].e.weight != all[j].e.weight {
			return all[i].e.weight > all[j].e.weight
		}
		if all[i].k.a != all[j].k.a {
			return all[i].k.a < all[j].k.a
		}
		return all[i].k.b < all[j].k.b
	})
	for _, v := range all[r.cfg.MaxEdges:] {
		r.prunedEdges++
		r.prunedWeight += v.e.weight
		r.prunedCo += v.e.co
		r.prunedTrans += v.e.trans
		delete(r.edges, v.k)
	}
}

func (r *refRecorder) Finish() {
	if r.finished {
		return
	}
	r.finished = true
	r.rotate()
}

func (r *refRecorder) Graph() *affinity.Graph {
	r.Finish()
	g := &affinity.Graph{
		Schema:         affinity.GraphSchema,
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
	remap := make([]int32, len(r.nodes))
	for i, n := range r.nodes {
		if n.Accesses > 0 || n.Faults > 0 || n.Evictions > 0 {
			remap[i] = int32(len(g.Nodes))
			g.Nodes = append(g.Nodes, n)
		} else {
			remap[i] = -1
		}
	}
	for k, e := range r.edges {
		g.Edges = append(g.Edges, affinity.Edge{
			A: remap[k.a], B: remap[k.b], Weight: e.weight, Co: e.co, Trans: e.trans,
		})
	}
	refRankEdges(g.Edges)
	for _, w := range r.log {
		nw := affinity.Window{Start: w.Start, Events: w.Events, Pressure: w.Pressure, Nodes: make([]int32, len(w.Nodes))}
		for i, id := range w.Nodes {
			nw.Nodes[i] = remap[id]
		}
		g.WindowLog = append(g.WindowLog, nw)
	}
	return g
}

func refRankEdges(es []affinity.Edge) {
	sort.SliceStable(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.Weight != b.Weight {
			return a.Weight > b.Weight
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
}

// refMerge is affinity.Merge with the stable-sort ranking.
func refMerge(graphs ...*affinity.Graph) *affinity.Graph {
	out := &affinity.Graph{Schema: affinity.GraphSchema}
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
		if out.Config == (affinity.Config{}) {
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
				out.Edges = append(out.Edges, affinity.Edge{A: a, B: b, Weight: e.Weight, Co: e.Co, Trans: e.Trans})
				continue
			}
			out.Edges[i].Weight += e.Weight
			out.Edges[i].Co += e.Co
			out.Edges[i].Trans += e.Trans
		}
		for _, w := range g.WindowLog {
			nw := affinity.Window{Start: w.Start, Events: w.Events, Pressure: w.Pressure, Nodes: make([]int32, len(w.Nodes))}
			for i, id := range w.Nodes {
				nw.Nodes[i] = local[id]
			}
			out.WindowLog = append(out.WindowLog, nw)
		}
	}
	sort.Slice(out.Sections, func(i, j int) bool { return out.Sections[i].Section < out.Sections[j].Section })
	refRankEdges(out.Edges)
	cfg := refWithDefaults(out.Config)
	if len(out.WindowLog) > cfg.MaxWindows {
		out.DroppedWindows += int64(len(out.WindowLog) - cfg.MaxWindows)
		out.WindowLog = append([]affinity.Window(nil), out.WindowLog[len(out.WindowLog)-cfg.MaxWindows:]...)
	}
	return out
}
