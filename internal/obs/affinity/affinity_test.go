package affinity

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"nimage/internal/obs/attrib"
	"nimage/internal/osim"
)

// testIndex mirrors the attrib package's test layout: a 4-page file,
// two sections, CUs on pages 0-1 and heap objects on pages 2-3.
func testIndex() *attrib.Index {
	sections := []osim.Section{
		{Name: ".text", Off: 0, Len: 8192},
		{Name: ".svm_heap", Off: 8192, Len: 8192},
	}
	syms := []attrib.Symbol{
		{Name: "<header>", Kind: attrib.KindHeader, Off: 0, Len: 64},
		{Name: "A.run(0)", Type: "A", Kind: attrib.KindCU, Section: ".text", Off: 64, Len: 6000},
		{Name: "B.run(0)", Type: "B", Kind: attrib.KindCU, Section: ".text", Off: 6064, Len: 2128},
		{Name: "hub:O1", Type: "O1", Kind: attrib.KindObject, Section: ".svm_heap", Off: 8192, Len: 100},
		{Name: "O2#0", Type: "O2", Kind: attrib.KindObject, Section: ".svm_heap", Off: 8292, Len: 8000},
	}
	return attrib.NewIndex(16384, sections, syms)
}

func access(r *Recorder, page int, clock int64) {
	sec := 0
	if page >= 2 {
		sec = 1
	}
	r.OnPageEvent(osim.PageEvent{Kind: osim.PageAccess, Off: int64(page) * osim.PageSize, Page: page, Section: sec, Clock: clock})
}

// TestRecorderWindowsAndEdges drives a hand-built access sequence and
// checks window rotation, co-occurrence, transition and decay mechanics.
func TestRecorderWindowsAndEdges(t *testing.T) {
	r := NewRecorder(testIndex(), Config{WindowEvents: 4, Decay: 0.5})
	// Window 1: pages 0,1,0,1 -> nodes <header>(page0 rep) and B.run(0)
	// (page1 rep: first symbol overlapping page 1 is A.run, off 64 len
	// 6000 covers pages 0 and 1 -> rep of page 1 is A.run? A ends at
	// 6064, page 1 is [4096,8192): A overlaps -> rep is A.run(0)).
	for i, p := range []int{0, 1, 0, 1} {
		access(r, p, int64(i+1))
	}
	// Window 2: pages 2,3,2,3 -> heap nodes.
	for i, p := range []int{2, 3, 2, 3} {
		access(r, p, int64(i+5))
	}
	g := r.Graph()
	if g.Windows != 2 {
		t.Fatalf("windows = %d, want 2", g.Windows)
	}
	if g.AccessEvents != 8 {
		t.Fatalf("access events = %d, want 8", g.AccessEvents)
	}
	// 3 transitions per window plus the window-crossing 1->2 transition.
	if g.Transitions != 7 {
		t.Fatalf("transitions = %d, want 7", g.Transitions)
	}
	// Each window has 2 distinct nodes -> 1 co-occurrence pair each.
	if g.Cooccurrences != 2 {
		t.Fatalf("cooccurrences = %d, want 2", g.Cooccurrences)
	}
	// Raw counts reconcile: sum edge Co/Trans == totals (nothing pruned).
	var co, tr int64
	for _, e := range g.Edges {
		co += e.Co
		tr += e.Trans
	}
	if co != g.Cooccurrences || tr != g.Transitions {
		t.Fatalf("edge sums co=%d trans=%d, totals co=%d trans=%d", co, tr, g.Cooccurrences, g.Transitions)
	}
	// The header<->A edge accumulated 3 transitions + 1 co in window 1,
	// then decayed once at window 2's rotation: weight = 4*0.5 = 2.
	hdr, okH := g.Node("<header>")
	if !okH || hdr.Accesses != 2 {
		t.Fatalf("<header> node: %+v ok=%v", hdr, okH)
	}
	found := false
	for _, e := range g.Edges {
		a, b := g.Nodes[e.A].Name, g.Nodes[e.B].Name
		if (a == "<header>" && b == "A.run(0)") || (a == "A.run(0)" && b == "<header>") {
			found = true
			if e.Co != 1 || e.Trans != 3 {
				t.Fatalf("header-A edge co=%d trans=%d, want 1/3", e.Co, e.Trans)
			}
			// 3 transitions decay at window 1's rotation (1.5), the
			// co-occurrence adds after (2.5), window 2's rotation decays
			// again: 1.25.
			if e.Weight != 1.25 {
				t.Fatalf("header-A edge weight = %v, want 1.25", e.Weight)
			}
		}
	}
	if !found {
		t.Fatal("header-A edge missing")
	}
	if len(g.WindowLog) != 2 || len(g.WindowLog[0].Nodes) != 2 || g.WindowLog[0].Events != 4 {
		t.Fatalf("window log: %+v", g.WindowLog)
	}
}

// TestRecorderChargesOffsetSymbol: accesses resolve to the symbol
// containing the touched byte, not the page's representative — page 1 is
// represented by A.run(0), but a touch inside B.run(0)'s bytes on that
// page must charge B. Offsets in uncovered gaps still fall back to the
// page representative so every event charges exactly one node.
func TestRecorderChargesOffsetSymbol(t *testing.T) {
	r := NewRecorder(testIndex(), Config{WindowEvents: 4})
	// Page 1 spans [4096, 8192): A.run(0) covers [64, 6064), B.run(0)
	// covers [6064, 8192). Touch B's bytes, then A's, on the same page.
	r.OnPageEvent(osim.PageEvent{Kind: osim.PageAccess, Off: 6100, Page: 1, Section: 0, Clock: 1})
	r.OnPageEvent(osim.PageEvent{Kind: osim.PageAccess, Off: 5000, Page: 1, Section: 0, Clock: 2})
	r.OnPageEvent(osim.PageEvent{Kind: osim.PageFault, Off: 6100, Page: 1, Section: 0, Major: true})
	g := r.Graph()
	b, ok := g.Node("B.run(0)")
	if !ok || b.Accesses != 1 || b.Faults != 1 || b.FirstClock != 1 {
		t.Fatalf("B.run(0) node: %+v ok=%v", b, ok)
	}
	a, ok := g.Node("A.run(0)")
	if !ok || a.Accesses != 1 || a.Faults != 0 || a.FirstClock != 2 {
		t.Fatalf("A.run(0) node: %+v ok=%v", a, ok)
	}
}

// TestRecorderEdgeBudget fills the graph past MaxEdges and checks exact
// pruned accounting.
func TestRecorderEdgeBudget(t *testing.T) {
	r := NewRecorder(testIndex(), Config{WindowEvents: 2, MaxEdges: 1, Decay: 1})
	// Three windows over three distinct node pairs -> 3 edges, budget 1.
	for i, p := range []int{0, 2, 1, 3, 0, 3} {
		access(r, p, int64(i+1))
	}
	g := r.Graph()
	if len(g.Edges) != 1 {
		t.Fatalf("edges = %d, want 1 (budget)", len(g.Edges))
	}
	var co, tr int64
	for _, e := range g.Edges {
		co += e.Co
		tr += e.Trans
	}
	if co+g.PrunedCo != g.Cooccurrences {
		t.Fatalf("co %d + pruned %d != total %d", co, g.PrunedCo, g.Cooccurrences)
	}
	if tr+g.PrunedTrans != g.Transitions {
		t.Fatalf("trans %d + pruned %d != total %d", tr, g.PrunedTrans, g.Transitions)
	}
	if g.PrunedEdges == 0 || g.PrunedWeight <= 0 {
		t.Fatalf("pruning not accounted: edges=%d weight=%v", g.PrunedEdges, g.PrunedWeight)
	}
}

// TestRecorderWindowLogBound checks the bounded window log drops oldest
// windows and counts them.
func TestRecorderWindowLogBound(t *testing.T) {
	r := NewRecorder(testIndex(), Config{WindowEvents: 1, MaxWindows: 2})
	for i := 0; i < 5; i++ {
		access(r, i%4, int64(i+1))
	}
	g := r.Graph()
	if len(g.WindowLog) != 2 {
		t.Fatalf("window log = %d, want 2", len(g.WindowLog))
	}
	if g.DroppedWindows != 3 {
		t.Fatalf("dropped windows = %d, want 3", g.DroppedWindows)
	}
	if g.Windows != 5 {
		t.Fatalf("windows = %d, want 5", g.Windows)
	}
	// The retained windows are the most recent ones.
	if g.WindowLog[0].Start != 4 || g.WindowLog[1].Start != 5 {
		t.Fatalf("retained windows: %+v", g.WindowLog)
	}
}

// TestRecorderReconcilesWithFile is the end-to-end reconciliation
// contract, mirroring the attribution recorder's test: driving a real
// osim mapping under budget pressure with the recorder observing it, the
// graph's totals and node sums must equal the
// mapping's and file's own counters exactly.
func TestRecorderReconcilesWithFile(t *testing.T) {
	o := osim.NewOS(osim.SSD())
	o.FaultAround = 1
	o.CacheBudget = 2
	sections := []osim.Section{
		{Name: ".text", Off: 0, Len: 8192},
		{Name: ".svm_heap", Off: 8192, Len: 8192},
	}
	f, err := o.NewFile("bin", 16384, sections)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(testIndex(), Config{WindowEvents: 3})
	m := f.Map()
	m.Observe(r)
	for _, p := range []int64{0, 1, 2, 3, 0, 3, 1, 2, 0} {
		m.Touch(p * osim.PageSize)
	}
	o.Reclaim(1)
	m.Touch(0)
	g := r.Graph()

	if g.Faults != m.Faults || g.Major != m.MajorFaults || g.Refaults != m.Refaults {
		t.Fatalf("graph faults=%d/%d/%d, mapping %d/%d/%d",
			g.Faults, g.Major, g.Refaults, m.Faults, m.MajorFaults, m.Refaults)
	}
	if g.Evictions != f.EvictedPages() {
		t.Fatalf("graph evictions %d, file %d", g.Evictions, f.EvictedPages())
	}
	var nf, nmaj, nref, nev, nacc int64
	for _, n := range g.Nodes {
		nf += n.Faults
		nmaj += n.Major
		nref += n.Refaults
		nev += n.Evictions
		nacc += n.Accesses
	}
	if nf != m.Faults || nmaj != m.MajorFaults || nref != m.Refaults {
		t.Fatalf("node sums faults=%d/%d/%d, mapping %d/%d/%d", nf, nmaj, nref, m.Faults, m.MajorFaults, m.Refaults)
	}
	if nev != f.EvictedPages() {
		t.Fatalf("node evictions %d, file %d", nev, f.EvictedPages())
	}
	if nacc != g.AccessEvents {
		t.Fatalf("node accesses %d, total %d", nacc, g.AccessEvents)
	}
	// Per-section totals match osim's own attribution.
	for _, sf := range m.AllSectionFaults() {
		st := g.Section(sf.Section)
		if st.Major != sf.Major || st.Minor != sf.Minor {
			t.Fatalf("section %s: graph %d/%d, mapping %d/%d", sf.Section, st.Major, st.Minor, sf.Major, sf.Minor)
		}
	}
	bySec := f.EvictionsBySection()
	for i, s := range sections {
		if got := g.Section(s.Name).Evicted; got != bySec[i].Pages {
			t.Fatalf("section %s: graph evicted %d, file %d", s.Name, got, bySec[i].Pages)
		}
	}
	// Edge-event totals reconcile exactly (nothing pruned here).
	var co, tr int64
	for _, e := range g.Edges {
		co += e.Co
		tr += e.Trans
	}
	if co+g.PrunedCo != g.Cooccurrences || tr+g.PrunedTrans != g.Transitions {
		t.Fatalf("edge totals co=%d+%d/%d trans=%d+%d/%d",
			co, g.PrunedCo, g.Cooccurrences, tr, g.PrunedTrans, g.Transitions)
	}
}

// TestRecorderRefaultsMatchMapping: re-faults are osim's decision. A page
// evicted under pressure and then dropped while not resident faults back
// as a first fault (DropCaches emits no event for it); only the later
// pressure eviction and fault is a re-fault. Node, section and graph
// re-fault totals all equal Mapping.Refaults.
func TestRecorderRefaultsMatchMapping(t *testing.T) {
	o := osim.NewOS(osim.SSD())
	o.FaultAround = 1
	ix := testIndex()
	f, err := o.NewFile("bin", ix.FileSize, ix.Sections)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder(ix, Config{})
	m := f.Map()
	m.Observe(r)
	m.Touch(0)
	m.Touch(osim.PageSize)
	o.Reclaim(1)   // pressure evicts page 0
	o.DropCaches() // drops page 1; page 0 is not resident
	m.Touch(0)     // first fault after the reset
	m.Touch(osim.PageSize)
	o.Reclaim(1) // pressure evicts page 0 again
	m.Touch(0)   // re-fault
	g := r.Graph()
	var nodes int64
	for _, n := range g.Nodes {
		nodes += n.Refaults
	}
	if m.Refaults != 1 || g.Refaults != m.Refaults || nodes != m.Refaults || g.Section(".text").Refaults != m.Refaults {
		t.Fatalf("refaults: graph %d, nodes %d, .text %d, mapping %d (want 1)",
			g.Refaults, nodes, g.Section(".text").Refaults, m.Refaults)
	}
}

// TestRecorderDeterministic runs the same event stream twice and expects
// bit-identical graphs (the single-recorder half of the determinism
// contract; the cross-worker half lives in the eval tests).
func TestRecorderDeterministic(t *testing.T) {
	run := func() *Graph {
		o := osim.NewOS(osim.SSD())
		o.FaultAround = 2
		o.CacheBudget = 3
		f, err := o.NewFile("bin", 16384, []osim.Section{
			{Name: ".text", Off: 0, Len: 8192},
			{Name: ".svm_heap", Off: 8192, Len: 8192},
		})
		if err != nil {
			t.Fatal(err)
		}
		r := NewRecorder(testIndex(), Config{WindowEvents: 2, MaxEdges: 2})
		m := f.Map()
		m.Observe(r)
		for _, p := range []int64{0, 3, 1, 2, 0, 2, 3, 1, 0, 3} {
			m.Touch(p * osim.PageSize)
		}
		o.ReclaimFraction(50)
		for _, p := range []int64{0, 1, 2, 3} {
			m.Touch(p * osim.PageSize)
		}
		return r.Graph()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("graphs differ across identical runs:\n%+v\n%+v", a, b)
	}
}

// TestMergeReconciles merges two graphs and checks name-keyed addition.
func TestMergeReconciles(t *testing.T) {
	mk := func() *Graph {
		r := NewRecorder(testIndex(), Config{WindowEvents: 2})
		for i, p := range []int{0, 2, 1, 3} {
			access(r, p, int64(i+1))
		}
		return r.Graph()
	}
	a, b := mk(), mk()
	m := Merge(a, b)
	if m.AccessEvents != a.AccessEvents+b.AccessEvents {
		t.Fatalf("merged accesses %d", m.AccessEvents)
	}
	if m.Transitions != a.Transitions+b.Transitions || m.Cooccurrences != a.Cooccurrences+b.Cooccurrences {
		t.Fatalf("merged edge totals: %+v", m)
	}
	var co, tr int64
	for _, e := range m.Edges {
		co += e.Co
		tr += e.Trans
	}
	if co+m.PrunedCo != m.Cooccurrences || tr+m.PrunedTrans != m.Transitions {
		t.Fatal("merged edge sums do not reconcile")
	}
	if len(m.WindowLog) != len(a.WindowLog)+len(b.WindowLog) {
		t.Fatalf("merged window log %d", len(m.WindowLog))
	}
	hdr, ok := m.Node("<header>")
	if !ok || hdr.Accesses != 2 {
		t.Fatalf("merged header node: %+v ok=%v", hdr, ok)
	}
	if Merge(nil, a).AccessEvents != a.AccessEvents {
		t.Fatal("nil graphs must be skipped")
	}
}

// TestCodecRoundTrip writes and re-reads a recorded graph.
func TestCodecRoundTrip(t *testing.T) {
	r := NewRecorder(testIndex(), Config{WindowEvents: 2})
	for i, p := range []int{0, 1, 2, 3, 0, 2} {
		access(r, p, int64(i+1))
	}
	r.OnPageEvent(osim.PageEvent{Kind: osim.PageFault, Off: 0, Page: 0, Section: 0, Major: true, IONanos: 1000})
	g := r.Graph()
	g.Workload, g.Layout = "w", "identity"
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGraph(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, got) {
		t.Fatalf("round trip differs:\n%+v\n%+v", g, got)
	}
}

// TestSelectFirst checks the selection prune uses: after selectFirst(s,
// k), s[:k] holds exactly the k least elements, for every k, on random,
// sorted, reversed and organ-pipe inputs.
func TestSelectFirst(t *testing.T) {
	compare := func(x, y int32) int { return int(x) - int(y) }
	inputs := map[string]func(n int) []int32{
		"random": func(n int) []int32 {
			s := make([]int32, n)
			for i := range s {
				s[i] = int32(i)
			}
			x := uint32(n*2654435761 + 1)
			for i := n - 1; i > 0; i-- {
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				j := int(x % uint32(i+1))
				s[i], s[j] = s[j], s[i]
			}
			return s
		},
		"sorted": func(n int) []int32 {
			s := make([]int32, n)
			for i := range s {
				s[i] = int32(i)
			}
			return s
		},
		"reversed": func(n int) []int32 {
			s := make([]int32, n)
			for i := range s {
				s[i] = int32(n - 1 - i)
			}
			return s
		},
		"organ-pipe": func(n int) []int32 {
			s := make([]int32, n)
			for i := range s {
				if i < n/2 {
					s[i] = int32(2 * i)
				} else {
					s[i] = int32(2*(n-1-i) + 1)
				}
			}
			return s
		},
	}
	for name, gen := range inputs {
		for _, n := range []int{1, 2, 3, 5, 8, 33, 100, 257} {
			for k := 0; k < n; k++ {
				s := gen(n)
				sorted := slices.Clone(s)
				slices.Sort(sorted)
				selectFirst(s, k, compare)
				for i, v := range s {
					if (i < k) != (v < sorted[k]) {
						t.Fatalf("%s n=%d k=%d: s[%d] = %d after selection: %v", name, n, k, i, v, s)
					}
				}
			}
		}
	}
}
