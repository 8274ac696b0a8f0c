// Package osim simulates the operating-system behaviour the paper measures:
// demand paging of a memory-mapped binary over a storage device.
//
// Native-Image binaries are mapped when the program starts; each page of the
// .text and .svm_heap sections is lazily read on first access (Sec. 2). The
// evaluation counts page faults attributed to each section by filtering fault
// offsets (Sec. 7.1), runs on an SSD with 4 KiB pages, and drops the page
// cache between iterations. Fig. 6 additionally distinguishes pages that
// faulted from pages that were paged in by the OS without faulting — the
// fault-around/readahead behaviour modelled here.
package osim

import (
	"fmt"
	"time"

	"nimage/internal/obs"
)

// PageSize is the page size in bytes (the paper uses 4 KiB pages).
const PageSize = 4096

// Device describes a storage device backing the binary file.
type Device struct {
	Name string
	// SeekLatency is the fixed cost of one read request (device latency,
	// and for NFS a network round trip).
	SeekLatency time.Duration
	// PerPage is the additional transfer cost per 4 KiB page read.
	PerPage time.Duration
}

// SSD models the local solid-state drive of the evaluation (Sec. 7.1).
func SSD() Device {
	return Device{Name: "ssd", SeekLatency: 90 * time.Microsecond, PerPage: 6 * time.Microsecond}
}

// NFS models the network file system alternative the paper reports as
// yielding similar results (Sec. 7.1).
func NFS() Device {
	return Device{Name: "nfs", SeekLatency: 450 * time.Microsecond, PerPage: 18 * time.Microsecond}
}

// OS owns the page cache shared by all processes until caches are dropped.
type OS struct {
	Device Device
	// FaultAround is the number of pages (aligned cluster) brought in and
	// mapped around a faulting page, modelling Linux fault-around plus
	// readahead. Must be a power of two.
	FaultAround int
	// AdaptiveReadahead enables Linux-style readahead escalation: when a
	// mapping faults on the cluster immediately following its previous
	// fault, the read window doubles (up to MaxReadahead pages). This
	// rewards layouts whose access *order* matches the layout order — the
	// Property-1 ordering of Sec. 4 — beyond mere compaction.
	AdaptiveReadahead bool
	// MaxReadahead caps the escalated window (pages).
	MaxReadahead int

	// Obs, when non-nil, receives per-fault timeline events and fault
	// counters from every mapping created after it is set. A nil registry
	// keeps the fault path free of instrumentation cost.
	Obs *obs.Registry

	// AttributeFaults asks higher layers (the image runtime) to attach a
	// per-fault attribution recorder to every mapping even when no obs
	// registry is present. The osim layer itself only carries the flag.
	AttributeFaults bool

	// TrackAffinity asks higher layers to attach an affinity recorder
	// (internal/obs/affinity) to every mapping even when no obs registry
	// is present. Like AttributeFaults, the osim layer only carries the
	// flag; the image runtime wires the recorder.
	TrackAffinity bool

	// CacheBudget caps the resident pages across all files of the OS;
	// 0 means unlimited (the cold-start model, where only DropCaches
	// empties the cache). When a fault's read overflows the budget, the
	// Policy picks victims to evict.
	CacheBudget int
	// Policy selects the page-replacement policy used by the budget and
	// by Reclaim (EvictLRU by default).
	Policy EvictionPolicy

	// DefaultTenant, when non-negative, tags every file and mapping
	// created afterwards with that tenant id, as if SetTenant were called
	// at Map() time. The fleet harness sets it around each tenant's
	// process construction, because NewProcess touches pages before the
	// caller could tag the mapping itself. NewOS initializes it to -1
	// (untenanted).
	DefaultTenant int

	files []*File

	// Tenant accounting state (tenant.go): per-tenant fault counters, the
	// eviction interference matrix, and per-tenant residency quotas. All
	// nil until tenancy is first enabled, so untenanted runs pay nothing.
	perTenant   []TenantFaults
	evictedBy   [][]int64
	tenantQuota map[int]int

	// Replacement-policy state: a logical access clock for LRU stamps,
	// the resident total the budget is enforced against, and the clock
	// policy's sweep hand over the concatenated page space.
	clock         int64
	residentTotal int
	hand          int
}

// FaultEvent describes one page fault as it is taken, for FaultObserver
// implementations (e.g. the attribution recorder of internal/obs/attrib).
type FaultEvent struct {
	// Off is the faulting byte offset; Page the faulting page index.
	Off  int64
	Page int
	// Section indexes File.Sections for the section containing Off, or
	// len(Sections) when the offset lies outside every section.
	Section int
	// Major reports whether the fault required device I/O; IONanos is the
	// simulated device time charged to it (0 for minor faults).
	Major   bool
	IONanos int64
	// ReadPages counts the pages the fault's read window brought into the
	// page cache (0 for minor faults).
	ReadPages int
	// MappedStart/MappedEnd delimit the page range [MappedStart, MappedEnd)
	// the fault-around window mapped into the process around the fault.
	MappedStart, MappedEnd int
}

// FaultObserver receives every page fault of a mapping as it happens.
// Observers must not touch the mapping they observe.
type FaultObserver interface {
	OnFault(FaultEvent)
}

// DefaultFaultAround is the default fault-around cluster size in pages.
const DefaultFaultAround = 8

// NewOS creates an OS with an empty page cache.
func NewOS(dev Device) *OS {
	return &OS{Device: dev, FaultAround: DefaultFaultAround, MaxReadahead: 32, DefaultTenant: -1}
}

// Section is a named contiguous byte range of a file (e.g. ".text").
type Section struct {
	Name string
	Off  int64
	Len  int64
}

// Contains reports whether the file offset lies inside the section.
func (s Section) Contains(off int64) bool { return off >= s.Off && off < s.Off+s.Len }

// File is an on-"disk" file with a page-cache residency bitmap.
type File struct {
	os       *OS
	Name     string
	Size     int64
	Sections []Section
	resident []bool

	// Replacement-policy state: per-page last-use stamps (LRU), reference
	// bits (clock), and whether the page was evicted under pressure or
	// budget since the last DropCaches (re-fault tracking).
	lastUse     []int64
	ref         []bool
	everEvicted []bool

	// mappings are the live mappings of the file; evicting a page unmaps
	// it from each of them (the kernel's rmap walk).
	mappings []*Mapping

	// tenant owns the file's pages in the interference matrix (-1 when
	// untenanted), fixed at NewFile time from OS.DefaultTenant.
	tenant int

	// Cumulative cache-churn counters. Invariant (enforced by test):
	// ResidentPages() == readIn - evicted at every point in time.
	readIn     int64
	evicted    int64
	refaults   int64
	evictBySec []int64 // per Sections index, + catch-all at the end
}

// NewFile registers a file with the OS. Sections must not overlap.
func (o *OS) NewFile(name string, size int64, sections []Section) (*File, error) {
	for i, s := range sections {
		if s.Off < 0 || s.Len < 0 || s.Off+s.Len > size {
			return nil, fmt.Errorf("osim: section %s out of file bounds", s.Name)
		}
		for _, t := range sections[:i] {
			if s.Off < t.Off+t.Len && t.Off < s.Off+s.Len {
				return nil, fmt.Errorf("osim: sections %s and %s overlap", s.Name, t.Name)
			}
		}
	}
	n := pagesFor(size)
	f := &File{
		os:          o,
		Name:        name,
		Size:        size,
		Sections:    sections,
		resident:    make([]bool, n),
		lastUse:     make([]int64, n),
		ref:         make([]bool, n),
		everEvicted: make([]bool, n),
		evictBySec:  make([]int64, len(sections)+1),
		tenant:      o.DefaultTenant,
	}
	if f.tenant >= 0 {
		o.enableTenants(f.tenant)
	}
	o.files = append(o.files, f)
	return f, nil
}

// DropCaches evicts every clean page, like writing to
// /proc/sys/vm/drop_caches between benchmark iterations (Sec. 7.1). It
// goes through the regular eviction path (unmapping pages from live
// mappings and notifying EvictionObservers with EvictDrop), and resets
// re-fault tracking: a deliberate cold-start reset is not memory
// pressure, so faults after it are first faults, not re-faults.
func (o *OS) DropCaches() {
	for _, f := range o.files {
		for p, res := range f.resident {
			if res {
				o.evictPage(f, p, EvictDrop, -1)
			}
		}
		for p := range f.everEvicted {
			f.everEvicted[p] = false
		}
	}
}

// PageState classifies a page of a mapping for the Fig. 6 visualization.
type PageState uint8

const (
	// PageUntouched: not mapped into the process (black cells of Fig. 6).
	PageUntouched PageState = iota
	// PageMappedNoFault: mapped by the OS via fault-around but never
	// faulted by the process (red cells).
	PageMappedNoFault
	// PageFaulted: caused a page fault (green cells).
	PageFaulted
)

// SectionFaults aggregates fault counts attributed to one section.
type SectionFaults struct {
	Section string
	Major   int64 // faults that triggered device I/O
	Minor   int64 // faults satisfied from the page cache
}

// Total returns major+minor faults — what `perf` reports as page-faults.
func (s SectionFaults) Total() int64 { return s.Major + s.Minor }

// Mapping is one process's memory map of a file. It tracks which pages are
// mapped, which faulted, per-section fault counts, and accumulated I/O time.
type Mapping struct {
	file    *File
	mapped  []bool
	faulted []bool

	// tenant is the tenant subsequent faults are charged to (-1 when
	// untenanted): set by SetTenant, inherited from OS.DefaultTenant at
	// Map() time (tenant.go).
	tenant int

	// Faults counts all page faults taken through this mapping.
	Faults int64
	// MajorFaults counts faults that required device I/O.
	MajorFaults int64
	// Refaults counts major faults that re-read a page evicted under
	// pressure or budget since the last DropCaches — the page-cache churn
	// cost of serve-mode workloads.
	Refaults int64
	// IOTime is the accumulated simulated device time.
	IOTime time.Duration

	bySection []SectionFaults
	other     SectionFaults

	// Observer, when non-nil, receives every fault of the mapping. Set it
	// before the first Touch; the startup faults of a process are part of
	// the attribution stream too.
	Observer FaultObserver

	// EvictObserver, when non-nil, receives every eviction of a page of
	// the mapped file (whether or not this mapping had it mapped).
	EvictObserver EvictionObserver

	// AccessObserver, when non-nil, receives the coarse page-access
	// stream of the mapping (see AccessEvent): one event per page
	// transition, faults included. Set it before the first Touch.
	AccessObserver AccessObserver

	// lastAccessPage is the page of the mapping's previous Touch, for the
	// page-transition coarsening of the access stream (-1 before the
	// first touch).
	lastAccessPage int

	// Readahead escalation state (AdaptiveReadahead): lastEnd is the page
	// index just past the previous read window; window the current size.
	lastEnd int
	window  int

	// Observability handles, resolved once at Map() time so the fault path
	// does no registry lookups. All are nil when the OS has no registry.
	tl       *obs.Timeline
	majorCtr []*obs.Counter // parallel to bySection, + catch-all at the end
	minorCtr []*obs.Counter
	readHist *obs.Histogram
}

// Map establishes a new mapping of the file (fresh virtual address space;
// nothing mapped yet).
func (f *File) Map() *Mapping {
	m := &Mapping{
		file:      f,
		mapped:    make([]bool, len(f.resident)),
		faulted:   make([]bool, len(f.resident)),
		bySection: make([]SectionFaults, len(f.Sections)),
	}
	for i, s := range f.Sections {
		m.bySection[i].Section = s.Name
	}
	m.other.Section = "<other>"
	m.lastEnd = -1
	m.lastAccessPage = -1
	m.tenant = f.os.DefaultTenant
	if m.tenant >= 0 {
		f.os.enableTenants(m.tenant)
	}
	if r := f.os.Obs; r.Enabled() {
		// The trailing "section" column carries the section *index* (stable
		// across builds of the same program, unlike event order), so merged
		// snapshots from parallel builds remain attributable even after
		// MergeSnapshots rebases the event sequence numbers.
		m.tl = r.Timeline("osim.faults", "offset", "page", "major", "io_nanos", "section")
		m.majorCtr = make([]*obs.Counter, len(f.Sections)+1)
		m.minorCtr = make([]*obs.Counter, len(f.Sections)+1)
		for i := range m.bySection {
			m.majorCtr[i] = r.Counter("osim.fault.major." + m.bySection[i].Section)
			m.minorCtr[i] = r.Counter("osim.fault.minor." + m.bySection[i].Section)
		}
		m.majorCtr[len(f.Sections)] = r.Counter("osim.fault.major.<other>")
		m.minorCtr[len(f.Sections)] = r.Counter("osim.fault.minor.<other>")
		m.readHist = r.Histogram("osim.read_pages", []float64{1, 2, 4, 8, 16, 32})
	}
	f.mappings = append(f.mappings, m)
	return m
}

// Release unregisters the mapping from its file, like munmap at process
// exit: later evictions no longer unmap its pages or notify its
// EvictObserver. The mapping's counters stay readable.
func (m *Mapping) Release() {
	f := m.file
	for i, mm := range f.mappings {
		if mm == m {
			f.mappings = append(f.mappings[:i], f.mappings[i+1:]...)
			return
		}
	}
}

// Touch accesses one byte offset, faulting the page in if necessary.
func (m *Mapping) Touch(off int64) {
	if off < 0 || off >= m.file.Size {
		panic(fmt.Sprintf("osim: touch offset %d outside file %q of size %d", off, m.file.Name, m.file.Size))
	}
	p := int(off / PageSize)
	if m.mapped[p] {
		// Plain memory access: no fault, but the page's recency still
		// advances for the replacement policies.
		m.file.noteUse(p)
		m.noteAccess(off, p, false)
		return
	}
	// Page fault. Attribute it to the section containing the offset, the
	// way the evaluation filters perf fault traces by section offsets.
	m.Faults++
	sf := &m.other
	secIdx := len(m.bySection)
	for i := range m.file.Sections {
		if m.file.Sections[i].Contains(off) {
			sf = &m.bySection[i]
			secIdx = i
			break
		}
	}
	m.faulted[p] = true
	fa := m.file.os.FaultAround
	if fa < 1 {
		fa = 1
	}
	var faultIO time.Duration
	read := 0
	refault := false
	major := !m.file.resident[p]
	if !major {
		sf.Minor++
	} else {
		sf.Major++
		m.MajorFaults++
		if m.file.everEvicted[p] {
			// This page had been in the cache and was reclaimed: the fault
			// is a re-fault, the churn cost serve-mode layouts compete on.
			m.file.refaults++
			m.Refaults++
			refault = true
		}
		// Read window: the aligned fault-around cluster, escalated when
		// the fault continues right after the previous read window
		// (AdaptiveReadahead — Linux readahead ramp-up).
		window := fa
		if m.file.os.AdaptiveReadahead {
			if m.window < fa {
				m.window = fa
			}
			if m.lastEnd >= 0 && p >= m.lastEnd && p < m.lastEnd+fa {
				m.window *= 2
				maxRA := m.file.os.MaxReadahead
				if maxRA < fa {
					maxRA = fa
				}
				if m.window > maxRA {
					m.window = maxRA
				}
			} else {
				m.window = fa
			}
			window = m.window
		}
		start := p / fa * fa
		end := start + window
		if end > len(m.file.resident) {
			end = len(m.file.resident)
		}
		for i := start; i < end; i++ {
			if !m.file.resident[i] {
				m.file.resident[i] = true
				m.file.readIn++
				m.file.os.residentTotal++
				m.file.noteUse(i)
				read++
			}
		}
		m.lastEnd = end
		dev := m.file.os.Device
		faultIO = dev.SeekLatency + time.Duration(read)*dev.PerPage
		m.IOTime += faultIO
		if m.readHist != nil {
			m.readHist.Observe(float64(read))
		}
		// The read may have overflowed the resident budget: reclaim down
		// to it, never evicting the page this fault needs. Evictions are
		// charged to this mapping's tenant in the interference matrix.
		m.file.os.enforceBudget(m.file, p, m.tenant)
		m.file.os.enforceQuota(m.tenant, m.file, p)
	}
	m.chargeTenant(major, refault, faultIO)
	m.file.noteUse(p)
	if m.tl != nil {
		var mj int64
		if major {
			mj = 1
			m.majorCtr[secIdx].Inc()
		} else {
			m.minorCtr[secIdx].Inc()
		}
		m.tl.Record(sf.Section, off, int64(p), mj, faultIO.Nanoseconds(), int64(secIdx))
	}
	// Fault-around: map the resident pages of the surrounding window
	// without further faults (the red cells of Fig. 6).
	around := fa
	if m.file.os.AdaptiveReadahead && m.window > around {
		around = m.window
	}
	start := p / fa * fa
	end := start + around
	if end > len(m.mapped) {
		end = len(m.mapped)
	}
	for i := start; i < end; i++ {
		if m.file.resident[i] {
			m.mapped[i] = true
		}
	}
	m.mapped[p] = true
	if m.Observer != nil {
		m.Observer.OnFault(FaultEvent{
			Off: off, Page: p, Section: secIdx,
			Major: major, IONanos: faultIO.Nanoseconds(), ReadPages: read,
			MappedStart: start, MappedEnd: end,
		})
	}
	m.noteAccess(off, p, true)
}

// TouchRange accesses [off, off+n), faulting each covered page. Each
// page is touched at the first byte of the range on it (the range start
// for the first page, the page start for the rest), so observers see
// offsets inside the accessed symbol rather than page-aligned ones —
// the affinity recorder resolves them to the symbol being executed, not
// to whichever symbol happens to open the page.
func (m *Mapping) TouchRange(off, n int64) {
	if n <= 0 {
		return
	}
	first := off / PageSize
	last := (off + n - 1) / PageSize
	for p := first; p <= last; p++ {
		at := p * PageSize
		if at < off {
			at = off
		}
		m.Touch(at)
	}
}

// SectionFaults returns fault counts for the named section.
func (m *Mapping) SectionFaults(name string) SectionFaults {
	for _, sf := range m.bySection {
		if sf.Section == name {
			return sf
		}
	}
	return SectionFaults{Section: name}
}

// AllSectionFaults returns the per-section fault counts in section order,
// plus the catch-all bucket for offsets outside any section.
func (m *Mapping) AllSectionFaults() []SectionFaults {
	out := make([]SectionFaults, 0, len(m.bySection)+1)
	out = append(out, m.bySection...)
	return append(out, m.other)
}

// PageStates returns the per-page classification of the named section for
// the Fig. 6 visualization, or nil if the section does not exist.
func (m *Mapping) PageStates(section string) []PageState {
	var sec *Section
	for i := range m.file.Sections {
		if m.file.Sections[i].Name == section {
			sec = &m.file.Sections[i]
			break
		}
	}
	if sec == nil {
		return nil
	}
	first := sec.Off / PageSize
	last := (sec.Off + sec.Len - 1) / PageSize
	out := make([]PageState, 0, last-first+1)
	for p := first; p <= last; p++ {
		switch {
		case m.faulted[p]:
			out = append(out, PageFaulted)
		case m.mapped[p]:
			out = append(out, PageMappedNoFault)
		default:
			out = append(out, PageUntouched)
		}
	}
	return out
}

// PageClasses returns the per-page classification of the whole file — the
// per-section view of PageStates extended to every page, used by the fault
// attribution recorder to compute resident-but-unused (fault-around waste)
// bytes per symbol after a run.
func (m *Mapping) PageClasses() []PageState {
	out := make([]PageState, len(m.mapped))
	for p := range m.mapped {
		switch {
		case m.faulted[p]:
			out[p] = PageFaulted
		case m.mapped[p]:
			out[p] = PageMappedNoFault
		}
	}
	return out
}

// ResidentPages returns how many pages of the file are in the page cache.
func (f *File) ResidentPages() int {
	n := 0
	for _, r := range f.resident {
		if r {
			n++
		}
	}
	return n
}

func pagesFor(size int64) int {
	if size <= 0 {
		return 0
	}
	return int((size + PageSize - 1) / PageSize)
}
