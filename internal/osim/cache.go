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
// Every eviction call (a Reclaim, a budget overflow, a tenant's quota)
// first computes how many pages must go, then picks all of them in one
// pass over the resident pages (evictColdest). The counts those calls
// compare against — the resident total, the resident pages per owning
// tenant and per section — are counters kept where pages are read in and
// evicted, so no check rescans the cache.
//
// Evicting a resident page also unmaps it from every live mapping of the
// file (the kernel's rmap walk): the next access takes a major re-fault,
// not a free hit on a stale PTE.

import (
	"cmp"
	"slices"
)

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
	return o.evictColdest(n, -1, nil, -1, EvictPressure, -1)
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
	o.evictColdest(o.residentTotal-o.CacheBudget, -1, pin, pinPage, EvictBudget, evictor)
}

// victim is one eviction candidate: a resident page's last-use stamp and
// its position (file registration index, page index). It holds no
// pointer, so filling the OS's scratch buffer needs no write barrier.
type victim struct {
	use  int64
	file int32
	page int32
}

// cmpUse orders candidates coldest first.
func cmpUse(a, b victim) int { return cmp.Compare(a.use, b.use) }

// evictColdest evicts the n least-recently-used resident pages of the
// files owned by tenant owner (-1: any file), coldest first, never the
// pinned (currently faulting) page, and returns how many it evicted
// (fewer when fewer pages are evictable). Reclaim, the resident budget
// and tenant quotas all select their victims here, in one pass over the
// resident pages: a max-heap keeps the n coldest seen so far. Every page
// read in and every access takes a fresh stamp of the OS clock, so no two
// resident pages share one: the n coldest in ascending order are exactly
// the pages n repeated minimum scans would pick, in the same order.
func (o *OS) evictColdest(n, owner int, pin *File, pinPage int, cause EvictCause, evictor int) int {
	if n <= 0 {
		return 0
	}
	h := o.victims[:0]
	for fi, f := range o.files {
		if owner >= 0 && f.tenant != owner {
			continue
		}
		left := f.ResidentPages()
		for p := 0; left > 0; p++ {
			if !f.resident[p] {
				continue
			}
			left--
			if f == pin && p == pinPage {
				continue
			}
			v := victim{use: f.lastUse[p], file: int32(fi), page: int32(p)}
			switch {
			case len(h) < n:
				h = append(h, v)
				siftUp(h, len(h)-1)
			case v.use < h[0].use:
				h[0] = v
				siftDown(h, 0)
			}
		}
	}
	slices.SortFunc(h, cmpUse)
	for _, v := range h {
		o.evictPage(o.files[v.file], int(v.page), cause, evictor)
	}
	o.victims = h[:0]
	return len(h)
}

// siftUp restores the max-heap order of h (warmest candidate at the
// root) after h[i] was appended.
func siftUp(h []victim, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].use >= h[i].use {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// siftDown restores the max-heap order of h after h[i] was replaced.
func siftDown(h []victim, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].use > h[c].use {
			c++
		}
		if h[i].use >= h[c].use {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// evictPage removes one resident page from the cache: accounting, rmap
// unmap from every live mapping, and an evict event to each. evictor is
// the tenant whose fault forced the eviction (-1 for external pressure
// or DropCaches), charged against the file's owning tenant in the
// interference matrix.
func (o *OS) evictPage(f *File, p int, cause EvictCause, evictor int) {
	sec := f.pageSection(p)
	f.resident[p] = false
	f.residentBySec[sec]--
	o.residentTotal--
	o.ownerResident[f.tenant+1]--
	f.evicted++
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
	out := make([]SectionPages, 0, len(f.Sections)+1)
	for i, s := range f.Sections {
		out = append(out, SectionPages{Section: s.Name, Pages: f.residentBySec[i]})
	}
	return append(out, SectionPages{Section: otherSection, Pages: f.residentBySec[len(f.Sections)]})
}

// ResidentInSection returns how many pages of the named section are
// currently resident.
func (f *File) ResidentInSection(name string) int {
	n := 0
	for i, s := range f.Sections {
		if s.Name == name {
			n = int(f.residentBySec[i])
		}
	}
	if name == otherSection {
		n = int(f.residentBySec[len(f.Sections)])
	}
	return n
}

// ResidentPages returns how many pages of the file are in the page cache.
func (f *File) ResidentPages() int {
	n := int64(0)
	for _, c := range f.residentBySec {
		n += c
	}
	return int(n)
}
