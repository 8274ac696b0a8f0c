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

// DeviceByName returns the device named ssd or nfs; any other name is an
// error, so a mistyped device never silently measures the default.
func DeviceByName(name string) (Device, error) {
	for _, d := range []Device{SSD(), NFS()} {
		if d.Name == name {
			return d, nil
		}
	}
	return Device{}, fmt.Errorf("osim: device must be ssd or nfs, got %q", name)
}

// OS owns the page cache shared by all processes until caches are dropped.
type OS struct {
	Device Device
	// FaultAround is the number of pages (aligned cluster) brought in and
	// mapped around a faulting page, modelling Linux fault-around plus
	// readahead. Must be a power of two.
	FaultAround int

	// Obs, when non-nil, receives per-fault timeline events and fault
	// counters from every mapping created after it is set (Map attaches a
	// fault-metrics observer). A nil registry keeps the fault path free of
	// instrumentation cost.
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
	// least-recently-used pages are evicted.
	CacheBudget int

	// DefaultTenant, when non-negative, tags every file and mapping
	// created afterwards with that tenant id, as if SetTenant were called
	// at Map() time. The fleet harness sets it around each tenant's
	// process construction, because NewProcess touches pages before the
	// caller could tag the mapping itself. NewOS initializes it to -1
	// (untenanted).
	DefaultTenant int

	files []*File
	// byKey finds the file registered for a caller's key (FileFor).
	byKey map[any]*File

	// Tenant accounting state (tenant.go): the eviction interference
	// matrix and per-tenant residency quotas. Both nil until tenancy is
	// first enabled, so untenanted runs pay nothing.
	evictedBy   [][]int64
	tenantQuota map[int]int

	// Replacement state: a logical access clock for LRU stamps, the
	// resident total the budget is enforced against, the resident pages
	// per owning tenant (indexed by tenant+1, so untenanted files count
	// at 0) that quotas are enforced against, and the eviction pass's
	// scratch buffer.
	clock         int64
	residentTotal int
	ownerResident []int
	victims       []victim
}

// DefaultFaultAround is the default fault-around cluster size in pages.
const DefaultFaultAround = 8

// NewOS creates an OS with an empty page cache.
func NewOS(dev Device) *OS {
	return &OS{Device: dev, FaultAround: DefaultFaultAround, DefaultTenant: -1}
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

	// Replacement state: per-page last-use stamps (LRU) and whether the
	// page was evicted under pressure or budget since the last DropCaches
	// (re-fault tracking).
	lastUse     []int64
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

	// residentBySec counts the resident pages per Sections index, +
	// catch-all at the end; ResidentPages is their sum.
	residentBySec []int64
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
		os:            o,
		Name:          name,
		Size:          size,
		Sections:      sections,
		resident:      make([]bool, n),
		lastUse:       make([]int64, n),
		everEvicted:   make([]bool, n),
		evictBySec:    make([]int64, len(sections)+1),
		residentBySec: make([]int64, len(sections)+1),
		tenant:        max(o.DefaultTenant, -1),
	}
	if f.tenant >= 0 {
		o.enableTenants(f.tenant)
	}
	for len(o.ownerResident) <= f.tenant+1 {
		o.ownerResident = append(o.ownerResident, 0)
	}
	o.files = append(o.files, f)
	return f, nil
}

// FileFor returns the file registered for key, registering it with
// NewFile(name, size, sections) on first use. The OS owns the lookup, so
// a caller that runs one key (an image) on many short-lived OSes keeps
// none of them alive.
func (o *OS) FileFor(key any, name string, size int64, sections []Section) (*File, error) {
	if f, ok := o.byKey[key]; ok {
		return f, nil
	}
	f, err := o.NewFile(name, size, sections)
	if err != nil {
		return nil, err
	}
	if o.byKey == nil {
		o.byKey = make(map[any]*File)
	}
	o.byKey[key] = f
	return f, nil
}

// DropCaches evicts every clean page, like writing to
// /proc/sys/vm/drop_caches between benchmark iterations (Sec. 7.1). It
// goes through the regular eviction path (unmapping pages from live
// mappings and emitting EvictDrop events), and resets
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

// otherSection names the catch-all bucket for offsets outside every
// section.
const otherSection = "<other>"

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

	// observers receive the mapping's page-event stream (event.go).
	observers []PageObserver

	// lastAccessPage is the page of the mapping's previous Touch, for the
	// page-transition coarsening of the access events (-1 before the
	// first touch).
	lastAccessPage int
}

// Map establishes a new mapping of the file (fresh virtual address space;
// nothing mapped yet). When the OS has an obs registry, the mapping's
// first observer records its faults there.
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
	m.other.Section = otherSection
	m.lastAccessPage = -1
	m.tenant = f.os.DefaultTenant
	if m.tenant >= 0 {
		f.os.enableTenants(m.tenant)
	}
	if r := f.os.Obs; r.Enabled() {
		m.Observe(newFaultMetrics(r, f))
	}
	f.mappings = append(f.mappings, m)
	return m
}

// Release unregisters the mapping from its file, like munmap at process
// exit: later evictions no longer unmap its pages or reach its
// observers. The mapping's counters stay readable.
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
		m.noteAccess(off, p)
		return
	}
	// Page fault. Attribute it to the section containing the offset, the
	// way the evaluation filters perf fault traces by section offsets.
	m.Faults++
	secIdx := m.file.offSection(off)
	sf := &m.other
	if secIdx < len(m.bySection) {
		sf = &m.bySection[secIdx]
	}
	m.faulted[p] = true
	// The read window and the fault-around window are both the aligned
	// cluster around the page, clamped to the file.
	fa := m.file.os.FaultAround
	if fa < 1 {
		fa = 1
	}
	start := p / fa * fa
	end := min(start+fa, len(m.mapped))
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
		for i := start; i < end; i++ {
			if !m.file.resident[i] {
				m.file.readPage(i)
				read++
			}
		}
		dev := m.file.os.Device
		faultIO = dev.SeekLatency + time.Duration(read)*dev.PerPage
		m.IOTime += faultIO
		// The read may have overflowed the resident budget: reclaim down
		// to it, never evicting the page this fault needs. Evictions are
		// charged to this mapping's tenant in the interference matrix.
		m.file.os.enforceBudget(m.file, p, m.tenant)
		m.file.os.enforceQuota(m.tenant, m.file, p)
	}
	m.file.noteUse(p)
	// Fault-around: map the resident pages of the surrounding window
	// without further faults (the red cells of Fig. 6).
	for i := start; i < end; i++ {
		if m.file.resident[i] {
			m.mapped[i] = true
		}
	}
	m.mapped[p] = true
	if len(m.observers) > 0 {
		m.emit(PageEvent{
			Kind: PageFault, Off: off, Page: p, Section: secIdx, Clock: m.file.os.clock,
			Major: major, Refault: refault, IONanos: faultIO.Nanoseconds(), ReadPages: read,
		})
	}
	m.noteAccess(off, p)
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

// readPage brings page p into the page cache and stamps its use.
func (f *File) readPage(p int) {
	f.resident[p] = true
	f.residentBySec[f.pageSection(p)]++
	f.readIn++
	f.os.residentTotal++
	f.os.ownerResident[f.tenant+1]++
	f.noteUse(p)
}

func pagesFor(size int64) int {
	if size <= 0 {
		return 0
	}
	return int((size + PageSize - 1) / PageSize)
}
