package attrib

import (
	"testing"

	"nimage/internal/osim"
)

func TestRecorderEvictionAttribution(t *testing.T) {
	ix := testIndex()
	r := NewRecorder(ix)
	// Page 1 (.text, shared by CUs A and B) is evicted under pressure,
	// then major-faults back in: both CUs are charged the eviction and
	// the re-fault.
	r.OnPageEvent(osim.PageEvent{Kind: osim.PageFault, Off: 4096, Page: 1, Section: 0, Major: true, IONanos: 1000})
	r.OnPageEvent(osim.PageEvent{Kind: osim.PageEvict, Off: 4096, Page: 1, Section: 0, Cause: osim.EvictPressure})
	r.OnPageEvent(osim.PageEvent{Kind: osim.PageFault, Off: 4096, Page: 1, Section: 0, Major: true, Refault: true, IONanos: 1000})
	tb := r.Table()
	sec := tb.Section(".text")
	if sec.Evicted != 1 || sec.Refaults != 1 {
		t.Fatalf(".text evicted=%d refaults=%d, want 1/1", sec.Evicted, sec.Refaults)
	}
	for _, name := range []string{"A.run(0)", "B.run(0)"} {
		found := false
		for _, s := range tb.Symbols {
			if s.Name == name {
				found = true
				if s.Evicted != 1 || s.Refaults != 1 {
					t.Fatalf("%s evicted=%d refaults=%d, want 1/1", name, s.Evicted, s.Refaults)
				}
			}
		}
		if !found {
			t.Fatalf("symbol %s missing from table", name)
		}
	}
}

// observedMapping maps a file laid out like testIndex, one page per
// fault and no budget, with the recorder observing it.
func observedMapping(t *testing.T, r *Recorder) (*osim.OS, *osim.File, *osim.Mapping) {
	t.Helper()
	o := osim.NewOS(osim.SSD())
	o.FaultAround = 1
	ix := testIndex()
	f, err := o.NewFile("bin", ix.FileSize, ix.Sections)
	if err != nil {
		t.Fatal(err)
	}
	m := f.Map()
	m.Observe(r)
	return o, f, m
}

// TestRecorderDropDisarmsRefault: a page evicted under pressure and then
// dropped while not resident faults back as a first fault — DropCaches
// emits no event for it, so only osim knows the reset disarmed it. A
// later pressure eviction and fault is a real re-fault.
func TestRecorderDropDisarmsRefault(t *testing.T) {
	r := NewRecorder(testIndex())
	o, _, m := observedMapping(t, r)
	m.Touch(0)
	m.Touch(osim.PageSize)
	o.Reclaim(1)   // pressure evicts page 0
	o.DropCaches() // drops page 1; page 0 is not resident
	m.Touch(0)     // first fault after the reset
	m.Touch(osim.PageSize)
	o.Reclaim(1) // pressure evicts page 0 again
	m.Touch(0)   // re-fault
	tb := r.Table()
	if got := tb.Section(".text").Refaults; got != m.Refaults || got != 1 {
		t.Fatalf("section refaults = %d, mapping %d, want 1", got, m.Refaults)
	}
	if got := tb.Section(".text").Evicted; got != 3 {
		t.Fatalf("evicted = %d, want 3 (two pressure + one drop)", got)
	}
}

// TestRecorderMinorFaultOnEvictedPageNotRefault: a page evicted under
// pressure and read back by another mapping is a minor fault here, not
// a re-fault.
func TestRecorderMinorFaultOnEvictedPageNotRefault(t *testing.T) {
	r := NewRecorder(testIndex())
	o, f, m := observedMapping(t, r)
	m.Touch(8192)       // page 2, major
	o.Reclaim(1)        // pressure evicts it and unmaps it here
	f.Map().Touch(8192) // another process reads it back (its re-fault)
	m.Touch(8192)       // resident again: a minor fault here
	st := r.Table().Section(".svm_heap")
	if st.Minor != 1 || st.Refaults != 0 || m.Refaults != 0 {
		t.Fatalf(".svm_heap minor=%d refaults=%d (mapping %d), want 1/0/0", st.Minor, st.Refaults, m.Refaults)
	}
}

// TestRecorderReconcilesWithFile is the end-to-end reconciliation
// contract: driving a real osim mapping under budget pressure with the
// recorder observing it, the recorder's per-section
// eviction and re-fault totals must equal the file's own counters, and
// its fault totals must still match the mapping's per-section counts.
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
	ix := testIndex()
	r := NewRecorder(ix)
	m := f.Map()
	m.Observe(r)
	for _, p := range []int64{0, 1, 2, 3, 0, 3, 1, 2, 0} {
		m.Touch(p * osim.PageSize)
	}
	o.Reclaim(1)
	m.Touch(0)
	tb := r.Table()
	var recEvicted, recRefaults int64
	for _, s := range tb.Sections {
		recEvicted += s.Evicted
		recRefaults += s.Refaults
	}
	if recEvicted != f.EvictedPages() {
		t.Fatalf("recorder evicted %d, file %d", recEvicted, f.EvictedPages())
	}
	if recRefaults != f.RefaultedPages() {
		t.Fatalf("recorder refaults %d, file %d", recRefaults, f.RefaultedPages())
	}
	if recRefaults != m.Refaults {
		t.Fatalf("recorder refaults %d, mapping %d", recRefaults, m.Refaults)
	}
	// Per-section eviction counts match the file's section attribution.
	bySec := f.EvictionsBySection()
	for i, s := range sections {
		if got := tb.Section(s.Name).Evicted; got != bySec[i].Pages {
			t.Fatalf("section %s: recorder evicted %d, file %d", s.Name, got, bySec[i].Pages)
		}
	}
	// The fault-side reconciliation contract still holds under eviction.
	for _, sf := range m.AllSectionFaults() {
		st := tb.Section(sf.Section)
		if st.Major != sf.Major || st.Minor != sf.Minor {
			t.Fatalf("section %s: recorder %d/%d, mapping %d/%d",
				sf.Section, st.Major, st.Minor, sf.Major, sf.Minor)
		}
	}
}

func TestMergeCarriesEvictionCounts(t *testing.T) {
	a := &Table{
		Schema: TableSchema, Runs: 1,
		Sections: []SectionTotal{{Section: ".text", Major: 1, Evicted: 2, Refaults: 1}},
		Symbols:  []SymbolFaults{{Symbol: Symbol{Name: "A"}, Faults: 1, Evicted: 2, Refaults: 1}},
	}
	b := &Table{
		Schema: TableSchema, Runs: 1,
		Sections: []SectionTotal{{Section: ".text", Major: 1, Evicted: 3, Refaults: 2}},
		Symbols:  []SymbolFaults{{Symbol: Symbol{Name: "A"}, Faults: 1, Evicted: 3, Refaults: 2}},
	}
	m := Merge(a, b)
	if got := m.Section(".text"); got.Evicted != 5 || got.Refaults != 3 {
		t.Fatalf("merged section evicted=%d refaults=%d, want 5/3", got.Evicted, got.Refaults)
	}
	if m.Symbols[0].Evicted != 5 || m.Symbols[0].Refaults != 3 {
		t.Fatalf("merged symbol evicted=%d refaults=%d, want 5/3", m.Symbols[0].Evicted, m.Symbols[0].Refaults)
	}
}
