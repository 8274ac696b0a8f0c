package attrib

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"nimage/internal/osim"
)

// testIndex builds a 4-page layout with symbols that deliberately share
// pages:
//
//	page 0: header (64B) + CU A (64..6064 spans into page 1)
//	page 1: CU A + CU B (6064..8192)
//	page 2: obj O1 (8192..8292) + obj O2 (8292..16292 spans into page 3)
//	page 3: obj O2
func testIndex() *Index {
	sections := []osim.Section{
		{Name: ".text", Off: 0, Len: 8192},
		{Name: ".svm_heap", Off: 8192, Len: 8192},
	}
	syms := []Symbol{
		{Name: "<header>", Kind: KindHeader, Off: 0, Len: 64},
		{Name: "A.run(0)", Type: "A", Kind: KindCU, Section: ".text", Off: 64, Len: 6000},
		{Name: "B.run(0)", Type: "B", Kind: KindCU, Section: ".text", Off: 6064, Len: 2128},
		{Name: "hub:O1", Type: "O1", Kind: KindObject, Section: ".svm_heap", Off: 8192, Len: 100},
		{Name: "O2#0", Type: "O2", Kind: KindObject, Section: ".svm_heap", Off: 8292, Len: 8000},
		{Name: "empty", Kind: KindObject, Off: 8292, Len: 0},
	}
	return NewIndex(16384, sections, syms)
}

func namesOf(ix *Index, idxs []int) []string {
	var out []string
	for _, i := range idxs {
		out = append(out, ix.Symbols()[i].Name)
	}
	return out
}

func TestIndexSymbolsOnPage(t *testing.T) {
	ix := testIndex()
	if ix.Pages() != 4 {
		t.Fatalf("pages = %d, want 4", ix.Pages())
	}
	cases := []struct {
		page int
		want []string
	}{
		{0, []string{"<header>", "A.run(0)"}},
		{1, []string{"A.run(0)", "B.run(0)"}},
		{2, []string{"hub:O1", "O2#0"}}, // zero-length "empty" skipped
		{3, []string{"O2#0"}},
		{4, nil},
	}
	for _, c := range cases {
		if got := namesOf(ix, ix.SymbolsOnPage(c.page)); !reflect.DeepEqual(got, c.want) {
			t.Errorf("page %d: symbols = %v, want %v", c.page, got, c.want)
		}
	}
	if got := ix.SectionName(0); got != ".text" {
		t.Errorf("SectionName(0) = %q", got)
	}
	if got := ix.SectionName(2); got != "<other>" {
		t.Errorf("SectionName(2) = %q, want <other>", got)
	}
}

func TestRecorderAttribution(t *testing.T) {
	ix := testIndex()
	r := NewRecorder(ix)
	r.OnPageEvent(osim.PageEvent{Kind: osim.PageFault, Off: 0, Page: 0, Section: 0, Major: true, IONanos: 1000})
	r.OnPageEvent(osim.PageEvent{Kind: osim.PageFault, Off: 4096, Page: 1, Section: 0, Major: false})
	r.OnPageEvent(osim.PageEvent{Kind: osim.PageFault, Off: 8192, Page: 2, Section: 1, Major: true, IONanos: 500})
	states := make([]osim.PageState, 4)
	states[0] = osim.PageFaulted
	states[1] = osim.PageFaulted
	states[2] = osim.PageFaulted
	states[3] = osim.PageMappedNoFault // fault-around pulled in, never used
	r.Finish(states)
	tab := r.Table()

	if tab.Schema != TableSchema || tab.Runs != 1 || tab.Pages != 4 {
		t.Fatalf("table header: %+v", tab)
	}
	wantSections := []SectionTotal{
		{Section: ".text", Major: 1, Minor: 1, IONanos: 1000},
		{Section: ".svm_heap", Major: 1, IONanos: 500},
	}
	if !reflect.DeepEqual(tab.Sections, wantSections) {
		t.Errorf("sections = %+v, want %+v", tab.Sections, wantSections)
	}
	if tab.TotalFaults() != 3 {
		t.Errorf("total faults = %d, want 3", tab.TotalFaults())
	}

	by := map[string]SymbolFaults{}
	for _, s := range tab.Symbols {
		by[s.Name] = s
	}
	a := by["A.run(0)"]
	if a.Faults != 2 || a.Major != 1 || a.Minor != 1 || a.IONanos != 1000 || a.FirstOrdinal != 1 {
		t.Errorf("A: %+v", a)
	}
	if h := by["<header>"]; h.Faults != 1 || h.FirstOrdinal != 1 {
		t.Errorf("header: %+v", h)
	}
	if b := by["B.run(0)"]; b.Faults != 1 || b.Minor != 1 || b.FirstOrdinal != 2 {
		t.Errorf("B: %+v", b)
	}
	// O2 overlaps the unused page 3 with bytes [12288, 16292).
	o2 := by["O2#0"]
	if o2.Faults != 1 || o2.FirstOrdinal != 3 {
		t.Errorf("O2: %+v", o2)
	}
	if want := int64(16292 - 12288); o2.ResidentUnusedBytes != want {
		t.Errorf("O2 waste = %d, want %d", o2.ResidentUnusedBytes, want)
	}
	// Ranking: A (2 faults) first, then by I/O among the 1-fault symbols.
	if tab.Symbols[0].Name != "A.run(0)" {
		t.Errorf("rank[0] = %q, want A.run(0)", tab.Symbols[0].Name)
	}
	wantHeat := []PageHeat{
		{Page: 0, Count: 1, Major: 1, Section: ".text"},
		{Page: 1, Count: 1, Section: ".text"},
		{Page: 2, Count: 1, Major: 1, Section: ".svm_heap"},
	}
	if !reflect.DeepEqual(tab.Heat, wantHeat) {
		t.Errorf("heat = %+v, want %+v", tab.Heat, wantHeat)
	}
}

// The per-symbol fault sum is >= the per-section totals whenever symbols
// share pages — but the section totals themselves must track the event
// stream exactly (one bucket per fault).
func TestRecorderSectionReconciliation(t *testing.T) {
	ix := testIndex()
	r := NewRecorder(ix)
	for p := 0; p < 4; p++ {
		sec := 0
		if p >= 2 {
			sec = 1
		}
		r.OnPageEvent(osim.PageEvent{Kind: osim.PageFault, Off: int64(p) * osim.PageSize, Page: p, Section: sec, Major: p%2 == 0, IONanos: 10})
	}
	tab := r.Table()
	if got := tab.Section(".text").Total(); got != 2 {
		t.Errorf(".text total = %d, want 2", got)
	}
	if got := tab.Section(".svm_heap").Total(); got != 2 {
		t.Errorf(".svm_heap total = %d, want 2", got)
	}
	var symFaults int64
	for _, s := range tab.Symbols {
		symFaults += s.Faults
	}
	if symFaults < tab.TotalFaults() {
		t.Errorf("symbol faults %d < section faults %d: pages lost", symFaults, tab.TotalFaults())
	}
}

func TestMergeTables(t *testing.T) {
	mk := func(first int64) *Table {
		ix := testIndex()
		r := NewRecorder(ix)
		r.OnPageEvent(osim.PageEvent{Kind: osim.PageFault, Page: 0, Section: 0, Major: true, IONanos: 100})
		tab := r.Table()
		tab.Workload, tab.Layout = "Bounce", "cu"
		for i := range tab.Symbols {
			tab.Symbols[i].FirstOrdinal = first
		}
		return tab
	}
	m := Merge(mk(5), nil, mk(2))
	if m.Runs != 2 || m.Workload != "Bounce" || m.Layout != "cu" {
		t.Fatalf("merge header: %+v", m)
	}
	if m.TotalFaults() != 2 {
		t.Errorf("merged faults = %d, want 2", m.TotalFaults())
	}
	for _, s := range m.Symbols {
		if s.Faults != 2 {
			t.Errorf("%s faults = %d, want 2", s.Name, s.Faults)
		}
		if s.FirstOrdinal != 2 {
			t.Errorf("%s first ordinal = %d, want min-nonzero 2", s.Name, s.FirstOrdinal)
		}
	}
	if len(m.Heat) != 1 || m.Heat[0].Count != 2 {
		t.Errorf("merged heat: %+v", m.Heat)
	}
}

func TestDiffTables(t *testing.T) {
	base := &Table{
		Schema: TableSchema, Layout: "identity",
		Sections: []SectionTotal{{Section: ".text", Major: 6}},
		Symbols: []SymbolFaults{
			{Symbol: Symbol{Name: "X", Kind: KindCU, Section: ".text"}, Faults: 3, IONanos: 300},
			{Symbol: Symbol{Name: "Y", Kind: KindCU, Section: ".text"}, Faults: 2, IONanos: 200},
			{Symbol: Symbol{Name: "Z", Kind: KindCU, Section: ".text"}, Faults: 1, IONanos: 100},
		},
	}
	opt := &Table{
		Schema: TableSchema, Layout: "cu",
		Sections: []SectionTotal{{Section: ".text", Major: 5}},
		Symbols: []SymbolFaults{
			{Symbol: Symbol{Name: "Y", Kind: KindCU, Section: ".text"}, Faults: 1, IONanos: 80},
			{Symbol: Symbol{Name: "W", Kind: KindCU, Section: ".text"}, Faults: 4, IONanos: 400},
		},
	}
	d := DiffTables(base, opt)
	if d.BaselineLayout != "identity" || d.OptimizedLayout != "cu" {
		t.Fatalf("layouts: %+v", d)
	}
	if d.BaselineFaults != 6 || d.OptimizedFaults != 5 {
		t.Errorf("totals: %d -> %d", d.BaselineFaults, d.OptimizedFaults)
	}
	elim := func(es []DiffEntry) []string {
		var out []string
		for _, e := range es {
			out = append(out, e.Name)
		}
		return out
	}
	if got := elim(d.Eliminated); !reflect.DeepEqual(got, []string{"X", "Z"}) {
		t.Errorf("eliminated = %v", got)
	}
	if got := elim(d.Survived); !reflect.DeepEqual(got, []string{"Y"}) {
		t.Errorf("survived = %v", got)
	}
	if got := elim(d.New); !reflect.DeepEqual(got, []string{"W"}) {
		t.Errorf("new = %v", got)
	}
	if y := d.Survived[0]; y.Baseline != 2 || y.Optimized != 1 || y.IODeltaNanos != -120 {
		t.Errorf("survived Y: %+v", y)
	}
	if y := d.Survived[0]; y.Delta() != -1 {
		t.Errorf("delta = %d", y.Delta())
	}
}

func TestTableRoundTrip(t *testing.T) {
	ix := testIndex()
	r := NewRecorder(ix)
	r.OnPageEvent(osim.PageEvent{Kind: osim.PageFault, Page: 1, Section: 0, Major: true, IONanos: 42})
	tab := r.Table()
	tab.Workload = "Bounce"

	var buf bytes.Buffer
	if err := WriteTable(&buf, tab); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tab) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tab)
	}

	if _, err := ReadTable(strings.NewReader(`{"schema":"bogus/v9"}`)); err == nil {
		t.Error("bogus schema accepted")
	}
}
