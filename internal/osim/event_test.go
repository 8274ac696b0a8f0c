package osim

import (
	"fmt"
	"testing"
)

// pageLog records a mapping's page-event stream.
type pageLog struct{ events []PageEvent }

func (l *pageLog) OnPageEvent(ev PageEvent) { l.events = append(l.events, ev) }

// of returns the logged events of one kind, in order.
func (l *pageLog) of(k PageEventKind) []PageEvent {
	var out []PageEvent
	for _, ev := range l.events {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// TestAccessStreamCoarse checks the page-transition coarsening: repeated
// touches of the same page emit one access, every page change emits one,
// a faulting access directly follows its fault, and the clock is strictly
// increasing.
func TestAccessStreamCoarse(t *testing.T) {
	o := NewOS(SSD())
	o.FaultAround = 1
	f, err := o.NewFile("bin", 8*PageSize, []Section{{Name: ".text", Off: 0, Len: 4 * PageSize}})
	if err != nil {
		t.Fatal(err)
	}
	m := f.Map()
	log := &pageLog{}
	m.Observe(log)

	m.Touch(0)            // page 0, fault
	m.Touch(100)          // page 0 again: no event
	m.Touch(PageSize)     // page 1, fault
	m.Touch(PageSize + 8) // page 1 again: no event
	m.Touch(0)            // back to page 0, mapped: access only
	m.Touch(5 * PageSize) // page 5, outside .text, fault

	want := []struct {
		kind    PageEventKind
		page    int
		section int
	}{
		{PageFault, 0, 0}, {PageAccess, 0, 0},
		{PageFault, 1, 0}, {PageAccess, 1, 0},
		{PageAccess, 0, 0},
		{PageFault, 5, 1}, {PageAccess, 5, 1},
	}
	if len(log.events) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(log.events), len(want), log.events)
	}
	var last int64
	for i, e := range log.events {
		w := want[i]
		if e.Kind != w.kind || e.Page != w.page || e.Section != w.section {
			t.Errorf("event %d = %+v, want kind %d page %d section %d", i, e, w.kind, w.page, w.section)
		}
		if e.Kind == PageAccess {
			if e.Clock <= last {
				t.Errorf("event %d clock %d not increasing (prev %d)", i, e.Clock, last)
			}
			last = e.Clock
		}
	}
	if got := o.Clock(); got < last {
		t.Errorf("OS.Clock() = %d, below last event clock %d", got, last)
	}
}

// TestPageEventOrder pins the stream contract within one touch: budget
// evictions the fault's read forces come first, then the fault, then the
// access; a touch of a page fault-around already mapped is an access only.
func TestPageEventOrder(t *testing.T) {
	o, f, m := newBudgetOS(t, 8, 1)
	log := &pageLog{}
	m.Observe(log)
	m.Touch(0)
	m.Touch(PageSize) // budget 1: evicts page 0 while faulting page 1
	type kp struct {
		kind PageEventKind
		page int
	}
	want := []kp{{PageFault, 0}, {PageAccess, 0}, {PageEvict, 0}, {PageFault, 1}, {PageAccess, 1}}
	if len(log.events) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(log.events), len(want), log.events)
	}
	for i, w := range want {
		if got := (kp{log.events[i].Kind, log.events[i].Page}); got != w {
			t.Errorf("event %d = %+v, want %+v", i, got, w)
		}
	}
	if ev := log.events[2]; ev.Cause != EvictBudget || ev.Off != 0 {
		t.Errorf("budget eviction = %+v", ev)
	}

	o.CacheBudget = 0
	o.FaultAround = 2
	m2 := f.Map()
	log2 := &pageLog{}
	m2.Observe(log2)
	m2.Touch(2 * PageSize) // faults page 2, maps 2-3
	m2.Touch(3 * PageSize) // mapped by fault-around: access only
	if got := len(log2.of(PageFault)); got != 1 {
		t.Fatalf("faults = %d, want 1: %+v", got, log2.events)
	}
	if last := log2.events[len(log2.events)-1]; last.Kind != PageAccess || last.Page != 3 {
		t.Fatalf("fault-around touch gave %+v, want an access of page 3", last)
	}
}

// TestEvictReachesEveryMapping: an eviction is one event on every mapping
// still registered on the file, and none on a released one.
func TestEvictReachesEveryMapping(t *testing.T) {
	o, f, m1 := newBudgetOS(t, 8, 0)
	m2 := f.Map()
	l1, l2 := &pageLog{}, &pageLog{}
	m1.Observe(l1)
	m2.Observe(l2)
	m1.Touch(0)
	m1.Touch(PageSize)
	o.Reclaim(1)
	e1, e2 := l1.of(PageEvict), l2.of(PageEvict)
	if len(e1) != 1 || len(e2) != 1 || e1[0] != e2[0] {
		t.Fatalf("evictions: mapping 1 %+v, mapping 2 %+v", e1, e2)
	}
	if e1[0].Page != 0 || e1[0].Cause != EvictPressure {
		t.Fatalf("evicted %+v, want page 0 under pressure", e1[0])
	}
	m2.Release()
	o.Reclaim(1)
	if got := len(l1.of(PageEvict)); got != 2 {
		t.Fatalf("registered mapping saw %d evictions, want 2", got)
	}
	if got := len(l2.of(PageEvict)); got != 1 {
		t.Fatalf("released mapping saw %d evictions, want 1", got)
	}
}

// TestRefaultEventsSumToMapping: osim decides re-faults once. Across
// pressure, DropCaches and re-faults — including a page evicted under
// pressure and then dropped while not resident, whose next fault is a
// first fault — the fault events flagged Refault sum to Mapping.Refaults.
func TestRefaultEventsSumToMapping(t *testing.T) {
	o, f, m := newBudgetOS(t, 8, 0)
	log := &pageLog{}
	m.Observe(log)
	for p := int64(0); p < 4; p++ {
		m.Touch(p * PageSize)
	}
	o.Reclaim(1)   // pressure evicts page 0
	o.DropCaches() // drops pages 1-3; page 0 is not resident
	m.Touch(0)     // first fault after the reset, not a re-fault
	m.Touch(PageSize)
	o.Reclaim(1) // pressure evicts page 0 again
	m.Touch(0)   // re-fault
	var n int64
	for _, ev := range log.of(PageFault) {
		if ev.Refault {
			if !ev.Major {
				t.Errorf("minor fault flagged as re-fault: %+v", ev)
			}
			n++
		}
	}
	if n != m.Refaults || n != f.RefaultedPages() || n != 1 {
		t.Fatalf("re-fault events %d, mapping %d, file %d, want 1", n, m.Refaults, f.RefaultedPages())
	}
}

// countObserver counts page events by kind.
type countObserver struct{ n [3]int64 }

func (c *countObserver) OnPageEvent(ev PageEvent) { c.n[ev.Kind]++ }

// BenchmarkPageEvents measures the fault/evict path: every Touch faults a
// page in and evicts one under the cache budget. It runs once with no
// observer and once with one counting observer; both must stay
// allocation-free.
func BenchmarkPageEvents(b *testing.B) {
	const pages, budget = 64, 16
	for _, observers := range []int{0, 1} {
		b.Run(fmt.Sprintf("observers=%d", observers), func(b *testing.B) {
			o := NewOS(SSD())
			o.FaultAround = 1
			o.CacheBudget = budget
			f, err := o.NewFile("bin", pages*PageSize, []Section{{Name: ".text", Off: 0, Len: pages * PageSize}})
			if err != nil {
				b.Fatal(err)
			}
			m := f.Map()
			c := &countObserver{}
			if observers > 0 {
				m.Observe(c)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Touch(int64(i%pages) * PageSize)
			}
			b.StopTimer()
			if observers > 0 && c.n[PageFault] != m.Faults {
				b.Fatalf("observer counted %d faults, mapping %d", c.n[PageFault], m.Faults)
			}
		})
	}
}
