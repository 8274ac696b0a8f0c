// Package attrib attributes simulated page faults to the symbols of an
// image layout: the compilation units of .text and the objects of
// .svm_heap (plus the native tail and the header page). Where the osim
// layer counts faults per *section*, this package answers the layout
// debugging question per-symbol fault attribution exists for in
// profile-guided layout work (Hoag et al.; Newell & Pupyrev): *which* CU
// or heap object still faults cold, in what order, at what I/O cost, and
// how many bytes the fault-around windows dragged in for nothing.
//
// The pieces: an Index resolves pages to the symbols overlapping them; a
// Recorder observes a mapping's osim page-event stream and folds every
// fault and eviction into a per-symbol table plus a per-page heat map; a
// SectionTally keeps the per-section totals (shared with the affinity
// recorder); a Table is the serializable result; Diff compares two
// tables (baseline vs optimized layout) into eliminated / survived / new
// cold symbols. Exporters for the table live in pprof.go (pprof
// protobuf) and trace.go (Chrome trace-event JSON).
package attrib

import (
	"io"
	"sort"

	"nimage/internal/obs"
	"nimage/internal/osim"
)

// TableSchema versions the serialized attribution document.
const TableSchema = "nimage.attrib/v1"

// Symbol kinds.
const (
	KindCU     = "cu"     // compilation unit in .text
	KindObject = "object" // heap-snapshot object in .svm_heap
	KindNative = "native" // statically linked native-library tail of .text
	KindHeader = "header" // the file header page
)

// Symbol is one named byte range of the image file.
type Symbol struct {
	// Name identifies the symbol: the CU root's method signature, or a
	// stable object name ("hub:Class", "meta:Class", "Class#3", ...).
	Name string `json:"name"`
	// Type groups symbols: the declaring class of a CU, the object's type
	// name. It becomes the middle frame of the pprof location stack.
	Type string `json:"type,omitempty"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Section is the section containing the symbol ("" for the header).
	Section string `json:"section,omitempty"`
	// Off and Len delimit the symbol's bytes in the file.
	Off int64 `json:"off"`
	Len int64 `json:"len"`
}

// Index resolves file pages against a layout's symbols. Symbols are kept
// sorted by offset; pages resolve with a binary search, so the per-fault
// cost is logarithmic in the symbol count.
type Index struct {
	FileSize int64
	Sections []osim.Section
	syms     []Symbol
	// maxEnd[i] is the largest end offset among syms[0..i]. Plain end
	// offsets are not monotonic (a long symbol may be followed by short
	// ones), so the page lookup binary-searches this prefix-max instead.
	maxEnd []int64
}

// NewIndex builds an index over the given symbols (copied, then sorted by
// offset). Symbols may share pages but must not overlap byte ranges.
func NewIndex(fileSize int64, sections []osim.Section, syms []Symbol) *Index {
	ix := &Index{
		FileSize: fileSize,
		Sections: append([]osim.Section(nil), sections...),
		syms:     append([]Symbol(nil), syms...),
	}
	sort.SliceStable(ix.syms, func(i, j int) bool { return ix.syms[i].Off < ix.syms[j].Off })
	ix.maxEnd = make([]int64, len(ix.syms))
	for i, s := range ix.syms {
		end := s.Off + s.Len
		if i > 0 && ix.maxEnd[i-1] > end {
			end = ix.maxEnd[i-1]
		}
		ix.maxEnd[i] = end
	}
	return ix
}

// Symbols returns the indexed symbols in offset order.
func (ix *Index) Symbols() []Symbol { return ix.syms }

// Pages returns the number of pages the indexed file spans.
func (ix *Index) Pages() int {
	return int((ix.FileSize + osim.PageSize - 1) / osim.PageSize)
}

// SymbolsOnPage returns the indices (into Symbols) of every symbol
// overlapping the page — the set of CUs or objects a fault on that page
// pulls in.
func (ix *Index) SymbolsOnPage(page int) []int {
	lo := int64(page) * osim.PageSize
	hi := lo + osim.PageSize
	// First position whose prefix-max end offset reaches past the page
	// start; from there, scan while symbols start before the page end and
	// keep the ones actually overlapping.
	i := sort.Search(len(ix.syms), func(i int) bool { return ix.maxEnd[i] > lo })
	var out []int
	for ; i < len(ix.syms) && ix.syms[i].Off < hi; i++ {
		s := ix.syms[i]
		if s.Len > 0 && s.Off+s.Len > lo {
			out = append(out, i)
		}
	}
	return out
}

// SymbolAt returns the index (into Symbols) of the symbol containing the
// byte offset, or -1 when no symbol covers it. Symbols never overlap, so
// the containing symbol is unique.
func (ix *Index) SymbolAt(off int64) int {
	i := sort.Search(len(ix.syms), func(i int) bool { return ix.maxEnd[i] > off })
	for ; i < len(ix.syms) && ix.syms[i].Off <= off; i++ {
		s := ix.syms[i]
		if s.Len > 0 && s.Off+s.Len > off {
			return i
		}
	}
	return -1
}

// SectionName returns the name the index uses for a section index of an
// osim.PageEvent ("<other>" past the table, matching osim's catch-all).
func (ix *Index) SectionName(idx int) string {
	if idx >= 0 && idx < len(ix.Sections) {
		return ix.Sections[idx].Name
	}
	return "<other>"
}

// SymbolFaults aggregates the faults attributed to one symbol.
type SymbolFaults struct {
	Symbol
	// Faults counts faulted pages overlapping the symbol (major+minor).
	Faults int64 `json:"faults"`
	Major  int64 `json:"major"`
	Minor  int64 `json:"minor"`
	// IONanos is the simulated device time of the major faults on the
	// symbol's pages. A page shared by several symbols charges each of
	// them, so I/O sums over symbols exceed the per-section device time.
	IONanos int64 `json:"io_nanos"`
	// FirstOrdinal is the 1-based position of the symbol's first fault in
	// the run's fault stream (0 = the symbol never faulted) — the symbol's
	// place in the cold-start order.
	FirstOrdinal int64 `json:"first_ordinal,omitempty"`
	// ResidentUnusedBytes counts the symbol's bytes on pages that were
	// paged in (fault-around / readahead) but never faulted — the waste a
	// compact layout converts into useful prefetch.
	ResidentUnusedBytes int64 `json:"resident_unused_bytes,omitempty"`
	// Evicted counts evictions of pages overlapping the symbol (any
	// cause); Refaults counts major faults that brought such a page back
	// after a pressure or budget eviction — together they name the
	// symbols churning through the page cache in serve mode.
	Evicted  int64 `json:"evicted,omitempty"`
	Refaults int64 `json:"refaults,omitempty"`
}

// SectionTotal is the attribution stream's per-section reconciliation
// record: it must exactly match osim's SectionFaults counters.
type SectionTotal struct {
	Section string `json:"section"`
	Major   int64  `json:"major"`
	Minor   int64  `json:"minor"`
	IONanos int64  `json:"io_nanos"`
	// Evicted counts pages of the section evicted from the page cache
	// (reconciles with osim's File.EvictionsBySection); Refaults counts
	// major faults re-reading a pressure- or budget-evicted page.
	Evicted  int64 `json:"evicted,omitempty"`
	Refaults int64 `json:"refaults,omitempty"`
}

// Total returns major+minor.
func (s SectionTotal) Total() int64 { return s.Major + s.Minor }

// SectionTally folds the fault and evict events of a page-event stream
// into per-section totals. It uses each event's own section
// classification, so the totals reconcile with osim's counters by
// construction (asserted by tests, not assumed).
type SectionTally struct {
	ix *Index
	by map[int]*SectionTotal
}

// NewSectionTally creates an empty tally naming sections by the index.
func NewSectionTally(ix *Index) *SectionTally {
	return &SectionTally{ix: ix, by: make(map[int]*SectionTotal)}
}

// Add folds one event; access events leave the tally unchanged.
func (t *SectionTally) Add(ev osim.PageEvent) {
	if ev.Kind == osim.PageAccess {
		return
	}
	st := t.by[ev.Section]
	if st == nil {
		st = &SectionTotal{Section: t.ix.SectionName(ev.Section)}
		t.by[ev.Section] = st
	}
	if ev.Kind == osim.PageEvict {
		st.Evicted++
		return
	}
	if ev.Major {
		st.Major++
	} else {
		st.Minor++
	}
	if ev.Refault {
		st.Refaults++
	}
	st.IONanos += ev.IONanos
}

// Totals returns the sections with any event, in section order.
func (t *SectionTally) Totals() []SectionTotal {
	idxs := make([]int, 0, len(t.by))
	for i := range t.by {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	var out []SectionTotal
	for _, i := range idxs {
		out = append(out, *t.by[i])
	}
	return out
}

// PageHeat is one faulted page of the heat map.
type PageHeat struct {
	Page    int64  `json:"page"`
	Count   int64  `json:"count"`
	Major   int64  `json:"major"`
	Section string `json:"section"`
}

// Table is the serializable attribution result of one (or several merged)
// cold runs.
type Table struct {
	Schema string `json:"schema"`
	// Workload and Layout describe what was measured ("Bounce", "cu").
	Workload string `json:"workload,omitempty"`
	Layout   string `json:"layout,omitempty"`
	FileSize int64  `json:"file_size"`
	Pages    int    `json:"pages"`
	// Runs counts the cold runs merged into the table.
	Runs int `json:"runs"`
	// Sections reconciles with osim's per-section fault counters.
	Sections []SectionTotal `json:"sections"`
	// Symbols lists every symbol that faulted or carries fault-around
	// waste, ranked by fault count (then I/O time, then file offset).
	Symbols []SymbolFaults `json:"symbols"`
	// Heat is the per-page fault heat map (faulted pages only).
	Heat []PageHeat `json:"heat,omitempty"`
}

// Section returns the named section total (zero value if absent).
func (t *Table) Section(name string) SectionTotal {
	for _, s := range t.Sections {
		if s.Section == name {
			return s
		}
	}
	return SectionTotal{Section: name}
}

// TotalFaults sums the per-section totals (every fault lands in exactly
// one section bucket, so this equals the mapping's fault count).
func (t *Table) TotalFaults() int64 {
	var n int64
	for _, s := range t.Sections {
		n += s.Total()
	}
	return n
}

// Recorder folds a mapping's page-event stream into an attribution
// table. It is an osim.PageObserver; attach it with Mapping.Observe
// before the first touch. Not safe for concurrent use (one recorder per
// mapping).
type Recorder struct {
	ix       *Index
	counts   []SymbolFaults // parallel to ix.syms
	sections *SectionTally
	heat     []PageHeat // indexed by page; Count==0 means never faulted
	ordinal  int64
	finished bool
}

// NewRecorder creates a recorder over the index.
func NewRecorder(ix *Index) *Recorder {
	r := &Recorder{
		ix:       ix,
		counts:   make([]SymbolFaults, len(ix.syms)),
		sections: NewSectionTally(ix),
		heat:     make([]PageHeat, ix.Pages()),
	}
	for i := range r.counts {
		r.counts[i].Symbol = ix.syms[i]
	}
	return r
}

// OnPageEvent folds one event into the section totals and charges every
// symbol overlapping the event's page: a fault adds to the symbols'
// counts, I/O and re-faults (osim decides which faults re-fault) and to
// the page's heat; an eviction adds to their eviction counts.
func (r *Recorder) OnPageEvent(ev osim.PageEvent) {
	r.sections.Add(ev)
	switch ev.Kind {
	case osim.PageFault:
		r.fault(ev)
	case osim.PageEvict:
		for _, si := range r.ix.SymbolsOnPage(ev.Page) {
			r.counts[si].Evicted++
		}
	}
}

func (r *Recorder) fault(ev osim.PageEvent) {
	r.ordinal++
	if ev.Page >= 0 && ev.Page < len(r.heat) {
		h := &r.heat[ev.Page]
		h.Page = int64(ev.Page)
		h.Count++
		if ev.Major {
			h.Major++
		}
		h.Section = r.ix.SectionName(ev.Section)
	}
	for _, si := range r.ix.SymbolsOnPage(ev.Page) {
		c := &r.counts[si]
		c.Faults++
		if ev.Major {
			c.Major++
		} else {
			c.Minor++
		}
		if ev.Refault {
			c.Refaults++
		}
		c.IONanos += ev.IONanos
		if c.FirstOrdinal == 0 {
			c.FirstOrdinal = r.ordinal
		}
	}
}

// Finish computes fault-around waste from the mapping's final page states
// (osim.Mapping.PageClasses): for every page that was paged in but never
// faulted, each overlapping symbol is charged its byte overlap with the
// page. Call once, after the run.
func (r *Recorder) Finish(states []osim.PageState) {
	if r.finished {
		return
	}
	r.finished = true
	for p, st := range states {
		if st != osim.PageMappedNoFault {
			continue
		}
		lo := int64(p) * osim.PageSize
		hi := lo + osim.PageSize
		for _, si := range r.ix.SymbolsOnPage(p) {
			s := &r.counts[si]
			a, b := s.Off, s.Off+s.Len
			if a < lo {
				a = lo
			}
			if b > hi {
				b = hi
			}
			if b > a {
				s.ResidentUnusedBytes += b - a
			}
		}
	}
}

// Table assembles the attribution table: symbols with any faults or waste,
// ranked by fault count desc, then I/O desc, then offset.
func (r *Recorder) Table() *Table {
	t := &Table{
		Schema:   TableSchema,
		FileSize: r.ix.FileSize,
		Pages:    r.ix.Pages(),
		Runs:     1,
		Sections: r.sections.Totals(),
	}
	for i := range r.counts {
		c := r.counts[i]
		if c.Faults > 0 || c.ResidentUnusedBytes > 0 || c.Evicted > 0 {
			t.Symbols = append(t.Symbols, c)
		}
	}
	rankSymbols(t.Symbols)
	for p := range r.heat {
		if r.heat[p].Count > 0 {
			t.Heat = append(t.Heat, r.heat[p])
		}
	}
	return t
}

func rankSymbols(syms []SymbolFaults) {
	sort.SliceStable(syms, func(i, j int) bool {
		a, b := syms[i], syms[j]
		if a.Faults != b.Faults {
			return a.Faults > b.Faults
		}
		if a.IONanos != b.IONanos {
			return a.IONanos > b.IONanos
		}
		return a.Off < b.Off
	})
}

// Merge combines attribution tables — e.g. the per-iteration tables of one
// entry — by symbol name: counts add, first-fault ordinals keep the
// smallest nonzero value, heat maps add per page. Nil tables are skipped.
// Symbol offsets are taken from the first table naming the symbol (layouts
// of merged tables should agree; merging different layouts is meaningful
// only for the name-keyed counts).
func Merge(tables ...*Table) *Table {
	out := &Table{Schema: TableSchema}
	symIdx := make(map[string]int)
	secIdx := make(map[string]int)
	heatIdx := make(map[int64]int)
	for _, t := range tables {
		if t == nil {
			continue
		}
		if out.Workload == "" {
			out.Workload, out.Layout = t.Workload, t.Layout
		}
		if t.FileSize > out.FileSize {
			out.FileSize = t.FileSize
		}
		if t.Pages > out.Pages {
			out.Pages = t.Pages
		}
		out.Runs += t.Runs
		for _, s := range t.Sections {
			i, ok := secIdx[s.Section]
			if !ok {
				secIdx[s.Section] = len(out.Sections)
				out.Sections = append(out.Sections, s)
				continue
			}
			out.Sections[i].Major += s.Major
			out.Sections[i].Minor += s.Minor
			out.Sections[i].IONanos += s.IONanos
			out.Sections[i].Evicted += s.Evicted
			out.Sections[i].Refaults += s.Refaults
		}
		for _, s := range t.Symbols {
			i, ok := symIdx[s.Name]
			if !ok {
				symIdx[s.Name] = len(out.Symbols)
				out.Symbols = append(out.Symbols, s)
				continue
			}
			m := &out.Symbols[i]
			m.Faults += s.Faults
			m.Major += s.Major
			m.Minor += s.Minor
			m.IONanos += s.IONanos
			m.ResidentUnusedBytes += s.ResidentUnusedBytes
			m.Evicted += s.Evicted
			m.Refaults += s.Refaults
			if s.FirstOrdinal > 0 && (m.FirstOrdinal == 0 || s.FirstOrdinal < m.FirstOrdinal) {
				m.FirstOrdinal = s.FirstOrdinal
			}
		}
		for _, h := range t.Heat {
			i, ok := heatIdx[h.Page]
			if !ok {
				heatIdx[h.Page] = len(out.Heat)
				out.Heat = append(out.Heat, h)
				continue
			}
			out.Heat[i].Count += h.Count
			out.Heat[i].Major += h.Major
		}
	}
	sort.Slice(out.Sections, func(i, j int) bool { return out.Sections[i].Section < out.Sections[j].Section })
	rankSymbols(out.Symbols)
	sort.Slice(out.Heat, func(i, j int) bool { return out.Heat[i].Page < out.Heat[j].Page })
	return out
}

// WriteTable serializes the table as indented JSON.
func WriteTable(w io.Writer, t *Table) error { return obs.WriteDoc(w, t) }

// ReadTable deserializes a table written by WriteTable.
func ReadTable(r io.Reader) (*Table, error) {
	return obs.ReadDoc(r, "attrib", "table", TableSchema, func(t *Table) string { return t.Schema }, nil)
}
