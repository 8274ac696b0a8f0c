package osim

// Page-cache behaviour under memory pressure. The cold-start evaluation
// only ever needs the all-or-nothing DropCaches between iterations; serve-
// mode scenarios (long-lived services with request bursts) additionally
// need pages to *leave* the cache while a process is running — because the
// kernel reclaims them under a resident budget, or because other tenants
// push them out between bursts. This file models both: a resident-page
// budget enforced with exact LRU replacement, an explicit
// Reclaim API for inter-burst pressure, and evict events on the page-event
// stream (event.go) so attribution can name which symbols' pages fell out
// of cache and came back (re-faults).
//
// Evicting a resident page also unmaps it from every live mapping of the
// file (the kernel's rmap walk): the next access takes a major re-fault,
// not a free hit on a stale PTE.

import "sort"

// EvictCause says why a page left the page cache.
type EvictCause uint8

const (
	// EvictBudget: the resident-page budget overflowed on a fault's read.
	EvictBudget EvictCause = iota
	// EvictPressure: an explicit Reclaim call (inter-burst memory pressure).
	EvictPressure
	// EvictDrop: DropCaches (the cold-start reset between iterations).
	EvictDrop
)

// String names the cause.
func (c EvictCause) String() string {
	switch c {
	case EvictBudget:
		return "budget"
	case EvictPressure:
		return "pressure"
	case EvictDrop:
		return "drop"
	}
	return "unknown"
}

// SectionPages pairs a section name with a page count — the unit of the
// residency and eviction telemetry.
type SectionPages struct {
	Section string
	Pages   int64
}

// ResidentPages returns the number of pages currently in the page cache
// across all files of the OS.
func (o *OS) ResidentPages() int { return o.residentTotal }

// Reclaim evicts up to n least-recently-used resident pages,
// modelling inter-burst memory pressure (another tenant's working set
// pushing this binary's pages out), and returns how many were evicted.
func (o *OS) Reclaim(n int) int {
	evicted := 0
	for evicted < n && o.residentTotal > 0 {
		if !o.lruEvict(-1, nil, -1, EvictPressure, -1) {
			break
		}
		evicted++
	}
	return evicted
}

// ReclaimFraction evicts pct percent of the currently resident pages
// (rounded down) and returns how many were evicted.
func (o *OS) ReclaimFraction(pct int) int {
	if pct <= 0 {
		return 0
	}
	return o.Reclaim(o.residentTotal * pct / 100)
}

// enforceBudget evicts pages until the resident total fits the budget,
// never evicting the pinned (currently faulting) page. evictor is the
// tenant whose fault forced the evictions (-1 for none), for the
// interference matrix.
func (o *OS) enforceBudget(pin *File, pinPage int, evictor int) {
	if o.CacheBudget <= 0 {
		return
	}
	for o.residentTotal > o.CacheBudget {
		if !o.lruEvict(-1, pin, pinPage, EvictBudget, evictor) {
			return
		}
	}
}

// lruEvict evicts the resident page with the smallest last-use stamp
// among the files owned by tenant owner (-1: any file), never the pinned
// (currently faulting) page. Ties break by file registration order, then
// page index, so victim selection is deterministic. Returns false when no
// evictable page exists. Reclaim, the resident budget and tenant quotas
// all select their victims here.
func (o *OS) lruEvict(owner int, pin *File, pinPage int, cause EvictCause, evictor int) bool {
	var victim *File
	vp := -1
	var vUse int64
	for _, f := range o.files {
		if owner >= 0 && f.tenant != owner {
			continue
		}
		for p, res := range f.resident {
			if !res || (f == pin && p == pinPage) {
				continue
			}
			if victim == nil || f.lastUse[p] < vUse {
				victim, vp, vUse = f, p, f.lastUse[p]
			}
		}
	}
	if victim == nil {
		return false
	}
	o.evictPage(victim, vp, cause, evictor)
	return true
}

// evictPage removes one resident page from the cache: accounting, rmap
// unmap from every live mapping, and an evict event to each. evictor is
// the tenant whose fault forced the eviction (-1 for external pressure
// or DropCaches), charged against the file's owning tenant in the
// interference matrix.
func (o *OS) evictPage(f *File, p int, cause EvictCause, evictor int) {
	f.resident[p] = false
	o.residentTotal--
	f.evicted++
	sec := f.pageSection(p)
	f.evictBySec[sec]++
	o.noteEviction(evictor, f.tenant)
	if cause == EvictDrop {
		// DropCaches is the deliberate cold-start reset between benchmark
		// iterations, not memory pressure: re-fault tracking restarts.
		f.everEvicted[p] = false
	} else {
		f.everEvicted[p] = true
	}
	ev := PageEvent{Kind: PageEvict, Off: int64(p) * PageSize, Page: p, Section: sec, Clock: o.clock, Cause: cause}
	for _, m := range f.mappings {
		m.mapped[p] = false
		m.emit(ev)
	}
}

// pageSection classifies a page by its start offset, the same way faults
// are classified by their fault offset.
func (f *File) pageSection(p int) int { return f.offSection(int64(p) * PageSize) }

// noteUse stamps a page's access recency for LRU replacement.
func (f *File) noteUse(p int) {
	f.os.clock++
	f.lastUse[p] = f.os.clock
}

// ReadInPages returns the cumulative number of pages read into the cache
// for this file. Together with EvictedPages it reconciles exactly with
// residency: ResidentPages() == ReadInPages() - EvictedPages().
func (f *File) ReadInPages() int64 { return f.readIn }

// EvictedPages returns the cumulative number of pages evicted from the
// cache (any cause, including DropCaches).
func (f *File) EvictedPages() int64 { return f.evicted }

// RefaultedPages returns how many major faults re-read a page that had
// been evicted under pressure or budget since the last DropCaches — the
// serve-mode churn cost a layout either amortizes or pays repeatedly.
func (f *File) RefaultedPages() int64 { return f.refaults }

// EvictionsBySection returns the per-section eviction counts in section
// order, plus the catch-all bucket for pages outside every section.
func (f *File) EvictionsBySection() []SectionPages {
	out := make([]SectionPages, 0, len(f.Sections)+1)
	for i, s := range f.Sections {
		out = append(out, SectionPages{Section: s.Name, Pages: f.evictBySec[i]})
	}
	return append(out, SectionPages{Section: otherSection, Pages: f.evictBySec[len(f.Sections)]})
}

// ResidencyBySection returns the current resident page counts per section
// (plus the catch-all bucket) — the residency timeline's sample unit.
func (f *File) ResidencyBySection() []SectionPages {
	counts := make([]int64, len(f.Sections)+1)
	for p, res := range f.resident {
		if res {
			counts[f.pageSection(p)]++
		}
	}
	out := make([]SectionPages, 0, len(counts))
	for i, s := range f.Sections {
		out = append(out, SectionPages{Section: s.Name, Pages: counts[i]})
	}
	return append(out, SectionPages{Section: otherSection, Pages: counts[len(f.Sections)]})
}

// ResidentInSection returns how many pages of the named section are
// currently resident.
func (f *File) ResidentInSection(name string) int {
	n := 0
	for _, sp := range f.ResidencyBySection() {
		if sp.Section == name {
			n = int(sp.Pages)
		}
	}
	return n
}

// coldestResident returns the file's resident pages sorted coldest-first
// (for tests and diagnostics).
func (f *File) coldestResident() []int {
	var pages []int
	for p, res := range f.resident {
		if res {
			pages = append(pages, p)
		}
	}
	sort.Slice(pages, func(i, j int) bool {
		if f.lastUse[pages[i]] != f.lastUse[pages[j]] {
			return f.lastUse[pages[i]] < f.lastUse[pages[j]]
		}
		return pages[i] < pages[j]
	})
	return pages
}
