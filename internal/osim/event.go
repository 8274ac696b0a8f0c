package osim

// The page-event stream. Every observer of a mapping — the obs registry's
// fault metrics, the attribution recorder, the affinity recorder — reads
// one stream of PageEvent records through one observer list. A faulting
// touch emits its fault and then its access; a non-faulting touch emits an
// access only when it moves to a different page than the mapping's
// previous touch (one integer compare on the common same-page path); an
// eviction reaches every mapping still registered on the file. osim
// decides which faults are re-faults, so no observer keeps its own copy
// of the eviction history.

import "nimage/internal/obs"

// PageEventKind says what happened to a page.
type PageEventKind uint8

const (
	// PageAccess: the mapping touched a page other than the one it
	// touched last.
	PageAccess PageEventKind = iota
	// PageFault: the touch took a page fault.
	PageFault
	// PageEvict: the page left the page cache.
	PageEvict
)

// PageEvent is one record of a mapping's page-event stream.
type PageEvent struct {
	Kind PageEventKind
	// Off is the touched byte offset (the page start for evictions); Page
	// the page index.
	Off  int64
	Page int
	// Section indexes File.Sections for the section containing Off, or
	// len(Sections) when the offset lies outside every section.
	Section int
	// Clock is the OS logical access clock when the event happened. It
	// advances on every page use of any file of the OS, so it is a global
	// temporal coordinate across mappings.
	Clock int64
	// Fault events only. Major reports whether the fault required device
	// I/O; Refault whether it re-read a page evicted under pressure or
	// budget since the last DropCaches; IONanos is the simulated device
	// time charged to it and ReadPages the pages its read window brought
	// into the page cache (both 0 for minor faults).
	Major     bool
	Refault   bool
	IONanos   int64
	ReadPages int
	// Cause says why the page was evicted (evict events only).
	Cause EvictCause
}

// PageObserver receives a mapping's page-event stream. Observers must not
// touch the mapping they observe.
type PageObserver interface {
	OnPageEvent(PageEvent)
}

// Observe appends an observer to the mapping's list. Attach observers
// before the first Touch: the startup faults of a process are part of the
// stream too.
func (m *Mapping) Observe(o PageObserver) { m.observers = append(m.observers, o) }

func (m *Mapping) emit(ev PageEvent) {
	for _, o := range m.observers {
		o.OnPageEvent(ev)
	}
}

// Clock returns the OS's logical access clock, the temporal coordinate
// carried by PageEvent.Clock.
func (o *OS) Clock() int64 { return o.clock }

// noteAccess emits the access event for a touch of page p when the
// mapping has observers and the touch crossed a page boundary. The
// section is classified only on delivery, keeping the common same-page
// path to one compare.
func (m *Mapping) noteAccess(off int64, p int) {
	if len(m.observers) == 0 || p == m.lastAccessPage {
		m.lastAccessPage = p
		return
	}
	m.lastAccessPage = p
	m.emit(PageEvent{Kind: PageAccess, Off: off, Page: p, Section: m.file.offSection(off), Clock: m.file.os.clock})
}

// offSection classifies a byte offset: the index into Sections, or
// len(Sections) for offsets outside every section.
func (f *File) offSection(off int64) int {
	for i := range f.Sections {
		if f.Sections[i].Contains(off) {
			return i
		}
	}
	return len(f.Sections)
}

// faultMetrics is the observer Map attaches when the OS has an obs
// registry: the osim.faults timeline, the per-section major/minor fault
// counters and the read-window histogram. The handles are resolved once
// per mapping, so the fault path does no registry lookups.
type faultMetrics struct {
	sections     []string // section names, + the catch-all at the end
	tl           *obs.Timeline
	major, minor []*obs.Counter // parallel to sections
	readHist     *obs.Histogram
}

func newFaultMetrics(r *obs.Registry, f *File) *faultMetrics {
	// The trailing "section" column carries the section *index* (stable
	// across builds of the same program, unlike event order), so merged
	// snapshots from parallel builds remain attributable even after
	// MergeSnapshots rebases the event sequence numbers.
	fm := &faultMetrics{tl: r.Timeline("osim.faults", "offset", "page", "major", "io_nanos", "section")}
	for _, s := range f.Sections {
		fm.sections = append(fm.sections, s.Name)
	}
	fm.sections = append(fm.sections, otherSection)
	for _, name := range fm.sections {
		fm.major = append(fm.major, r.Counter("osim.fault.major."+name))
		fm.minor = append(fm.minor, r.Counter("osim.fault.minor."+name))
	}
	fm.readHist = r.Histogram("osim.read_pages", []float64{1, 2, 4, 8, 16, 32})
	return fm
}

func (fm *faultMetrics) OnPageEvent(ev PageEvent) {
	if ev.Kind != PageFault {
		return
	}
	var mj int64
	if ev.Major {
		mj = 1
		fm.readHist.Observe(float64(ev.ReadPages))
		fm.major[ev.Section].Inc()
	} else {
		fm.minor[ev.Section].Inc()
	}
	fm.tl.Record(fm.sections[ev.Section], ev.Off, int64(ev.Page), mj, ev.IONanos, int64(ev.Section))
}
