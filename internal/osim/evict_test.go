package osim

import (
	"testing"
	"testing/quick"
)

func newBudgetOS(t *testing.T, pages int64, budget int) (*OS, *File, *Mapping) {
	t.Helper()
	o := NewOS(SSD())
	o.FaultAround = 1 // one page per fault: precise control over residency
	o.CacheBudget = budget
	f, err := o.NewFile("bin", pages*PageSize, []Section{{Name: ".text", Off: 0, Len: pages * PageSize}})
	if err != nil {
		t.Fatal(err)
	}
	return o, f, f.Map()
}

func TestBudgetEvictsColdestPage(t *testing.T) {
	_, f, m := newBudgetOS(t, 8, 3)
	m.Touch(0 * PageSize)
	m.Touch(1 * PageSize)
	m.Touch(2 * PageSize)
	if got := f.ResidentPages(); got != 3 {
		t.Fatalf("resident = %d, want 3", got)
	}
	// Page 0 is the coldest; faulting page 3 must evict it.
	m.Touch(3 * PageSize)
	if got := f.ResidentPages(); got != 3 {
		t.Fatalf("resident after overflow = %d, want 3 (budget)", got)
	}
	if f.resident[0] {
		t.Fatal("LRU kept the coldest page 0 resident")
	}
	for _, p := range []int{1, 2, 3} {
		if !f.resident[p] {
			t.Fatalf("page %d should be resident", p)
		}
	}
}

func TestLRURecencyRefreshOnAccess(t *testing.T) {
	_, f, m := newBudgetOS(t, 8, 3)
	m.Touch(0 * PageSize)
	m.Touch(1 * PageSize)
	m.Touch(2 * PageSize)
	// Re-touch page 0 (mapped hit): it becomes the hottest, so page 1 is
	// now the LRU victim.
	m.Touch(0 * PageSize)
	m.Touch(3 * PageSize)
	if f.resident[1] {
		t.Fatal("page 1 should have been evicted (coldest after refresh)")
	}
	if !f.resident[0] {
		t.Fatal("page 0 was refreshed and must stay resident")
	}
}

func TestEvictionUnmapsFromLiveMapping(t *testing.T) {
	_, f, m := newBudgetOS(t, 8, 2)
	m.Touch(0 * PageSize)
	m.Touch(1 * PageSize)
	m.Touch(2 * PageSize) // evicts page 0 and unmaps it
	major := m.MajorFaults
	m.Touch(0 * PageSize) // must major-re-fault, not hit a stale PTE
	if m.MajorFaults != major+1 {
		t.Fatalf("touch of evicted page: major faults %d, want %d", m.MajorFaults, major+1)
	}
	if m.Refaults != 1 {
		t.Fatalf("Refaults = %d, want 1", m.Refaults)
	}
	if f.RefaultedPages() != 1 {
		t.Fatalf("file RefaultedPages = %d, want 1", f.RefaultedPages())
	}
}

func TestReclaimEvictsRequestedCount(t *testing.T) {
	o, f, m := newBudgetOS(t, 16, 0)
	for p := int64(0); p < 10; p++ {
		m.Touch(p * PageSize)
	}
	if got := o.Reclaim(4); got != 4 {
		t.Fatalf("Reclaim(4) = %d", got)
	}
	if got := f.ResidentPages(); got != 6 {
		t.Fatalf("resident after reclaim = %d, want 6", got)
	}
	// LRU evicts the four coldest: pages 0..3.
	for p := 0; p < 4; p++ {
		if f.resident[p] {
			t.Fatalf("page %d should have been reclaimed", p)
		}
	}
	// Reclaiming more than resident stops at empty.
	if got := o.Reclaim(100); got != 6 {
		t.Fatalf("Reclaim(100) = %d, want 6", got)
	}
	if o.ResidentPages() != 0 {
		t.Fatalf("resident after full reclaim = %d", o.ResidentPages())
	}
}

func TestReclaimFraction(t *testing.T) {
	o, _, m := newBudgetOS(t, 16, 0)
	for p := int64(0); p < 10; p++ {
		m.Touch(p * PageSize)
	}
	if got := o.ReclaimFraction(50); got != 5 {
		t.Fatalf("ReclaimFraction(50) = %d, want 5", got)
	}
	if got := o.ReclaimFraction(0); got != 0 {
		t.Fatalf("ReclaimFraction(0) = %d, want 0", got)
	}
}

// TestResidencyReconciliation is the acceptance-criteria invariant: at
// every point in time, for every file, resident == readIn - evicted, and
// the per-section eviction counts sum to the eviction total.
func TestResidencyReconciliation(t *testing.T) {
	check := func(t *testing.T, o *OS, f *File) {
		t.Helper()
		if got, want := int64(f.ResidentPages()), f.ReadInPages()-f.EvictedPages(); got != want {
			t.Fatalf("resident=%d, readIn-evicted=%d-%d=%d", got, f.ReadInPages(), f.EvictedPages(), want)
		}
		var sum int64
		for _, sp := range f.EvictionsBySection() {
			sum += sp.Pages
		}
		if sum != f.EvictedPages() {
			t.Fatalf("per-section evictions sum %d != total %d", sum, f.EvictedPages())
		}
		var resBySec int64
		for _, sp := range f.ResidencyBySection() {
			resBySec += sp.Pages
		}
		if resBySec != int64(f.ResidentPages()) {
			t.Fatalf("per-section residency sum %d != resident %d", resBySec, f.ResidentPages())
		}
	}
	// The subtest names the replacement policy the identity is checked under.
	t.Run("lru", func(t *testing.T) {
		o := NewOS(SSD())
		o.CacheBudget = 6
		f, err := o.NewFile("bin", 32*PageSize, []Section{
			{Name: ".text", Off: 0, Len: 16 * PageSize},
			{Name: ".svm_heap", Off: 16 * PageSize, Len: 12 * PageSize},
		})
		if err != nil {
			t.Fatal(err)
		}
		m := f.Map()
		seq := []int64{0, 5, 9, 17, 22, 3, 17, 29, 1, 12, 26, 0, 8, 31, 17}
		for _, p := range seq {
			m.Touch(p * PageSize)
			check(t, o, f)
		}
		o.Reclaim(3)
		check(t, o, f)
		for _, p := range seq {
			m.Touch(p*PageSize + 7)
			check(t, o, f)
		}
		o.DropCaches()
		check(t, o, f)
		if f.ResidentPages() != 0 {
			t.Fatalf("resident after DropCaches = %d", f.ResidentPages())
		}
	})
}

// TestReconciliationQuick drives random touch/reclaim sequences and
// checks the residency identity holds throughout.
func TestReconciliationQuick(t *testing.T) {
	prop := func(ops []uint16, budget uint8) bool {
		o := NewOS(SSD())
		o.CacheBudget = int(budget % 24)
		o.FaultAround = 4
		f, err := o.NewFile("bin", 64*PageSize, []Section{
			{Name: ".text", Off: 0, Len: 40 * PageSize},
		})
		if err != nil {
			return false
		}
		m := f.Map()
		for _, op := range ops {
			switch op % 8 {
			case 6:
				o.Reclaim(int(op>>8) % 8)
			case 7:
				o.DropCaches()
			default:
				m.Touch((int64(op>>3) % 64) * PageSize)
			}
			if int64(f.ResidentPages()) != f.ReadInPages()-f.EvictedPages() {
				return false
			}
			if o.CacheBudget > 0 && o.ResidentPages() > o.CacheBudget {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionObserverSeesEveryEviction(t *testing.T) {
	_, f, m := newBudgetOS(t, 8, 2)
	lg := &pageLog{}
	m.Observe(lg)
	m.Touch(0 * PageSize)
	m.Touch(1 * PageSize)
	m.Touch(2 * PageSize) // budget eviction of page 0
	evs := lg.of(PageEvict)
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Page != 0 || ev.Cause != EvictBudget || ev.Section != 0 {
		t.Fatalf("unexpected event %+v", ev)
	}
	if ev.Off != 0 {
		t.Fatalf("event offset = %d", ev.Off)
	}
	f.os.Reclaim(1) // pressure eviction of page 1
	if evs = lg.of(PageEvict); len(evs) != 2 || evs[1].Cause != EvictPressure {
		t.Fatalf("expected pressure event, got %+v", evs)
	}
	f.os.DropCaches() // drop eviction of the last resident page
	evs = lg.of(PageEvict)
	if last := evs[len(evs)-1]; last.Cause != EvictDrop {
		t.Fatalf("expected drop event, got %+v", last)
	}
	if int64(len(evs)) != f.EvictedPages() {
		t.Fatalf("observer saw %d evictions, file evicted %d", len(evs), f.EvictedPages())
	}
}

func TestReleaseStopsUnmapAndEvents(t *testing.T) {
	_, f, m := newBudgetOS(t, 8, 0)
	lg := &pageLog{}
	m.Observe(lg)
	m.Touch(0 * PageSize)
	m.Release()
	f.os.DropCaches()
	if evs := lg.of(PageEvict); len(evs) != 0 {
		t.Fatalf("released mapping still observed %d evictions", len(evs))
	}
	// The released mapping's view is frozen: page 0 stays mapped there.
	if !m.mapped[0] {
		t.Fatal("released mapping lost its page table")
	}
}

func TestDropCachesResetsRefaultTracking(t *testing.T) {
	_, f, m := newBudgetOS(t, 8, 2)
	m.Touch(0 * PageSize)
	m.Touch(1 * PageSize)
	m.Touch(2 * PageSize) // evicts 0
	f.os.DropCaches()
	m2 := f.Map()
	m2.Touch(0 * PageSize)
	if m2.Refaults != 0 {
		t.Fatalf("cold-start fault after DropCaches counted as refault")
	}
	if f.RefaultedPages() != 0 {
		t.Fatalf("file refaults after DropCaches = %d", f.RefaultedPages())
	}
}

func TestEvictionsBySectionAttribution(t *testing.T) {
	o := NewOS(SSD())
	o.FaultAround = 1
	f, err := o.NewFile("bin", 8*PageSize, []Section{
		{Name: ".text", Off: 0, Len: 4 * PageSize},
		{Name: ".svm_heap", Off: 4 * PageSize, Len: 4 * PageSize},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := f.Map()
	m.Touch(0 * PageSize)
	m.Touch(5 * PageSize)
	m.Touch(6 * PageSize)
	o.Reclaim(3)
	by := f.EvictionsBySection()
	if by[0].Section != ".text" || by[0].Pages != 1 {
		t.Fatalf(".text evictions = %+v", by[0])
	}
	if by[1].Section != ".svm_heap" || by[1].Pages != 2 {
		t.Fatalf(".svm_heap evictions = %+v", by[1])
	}
}

func TestResidentInSection(t *testing.T) {
	o := NewOS(SSD())
	o.FaultAround = 1
	f, err := o.NewFile("bin", 8*PageSize, []Section{
		{Name: ".text", Off: 0, Len: 4 * PageSize},
		{Name: ".svm_heap", Off: 4 * PageSize, Len: 4 * PageSize},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := f.Map()
	m.Touch(1 * PageSize)
	m.Touch(4 * PageSize)
	m.Touch(7 * PageSize)
	if got := f.ResidentInSection(".text"); got != 1 {
		t.Fatalf("resident .text = %d, want 1", got)
	}
	if got := f.ResidentInSection(".svm_heap"); got != 2 {
		t.Fatalf("resident .svm_heap = %d, want 2", got)
	}
}

func TestBudgetNeverEvictsFaultingPage(t *testing.T) {
	// Budget of 1: every fault must keep exactly its own page.
	_, f, m := newBudgetOS(t, 8, 1)
	for p := int64(0); p < 8; p++ {
		m.Touch(p * PageSize)
		if f.ResidentPages() != 1 {
			t.Fatalf("resident = %d, want 1", f.ResidentPages())
		}
		if !f.resident[p] {
			t.Fatalf("faulting page %d evicted by its own fault", p)
		}
	}
}

func TestBudgetWithFaultAroundWindow(t *testing.T) {
	// A fault-around read larger than the budget still completes, then
	// the budget trims the cache back down keeping the faulting page.
	o := NewOS(SSD())
	o.FaultAround = 8
	o.CacheBudget = 4
	f, err := o.NewFile("bin", 16*PageSize, []Section{{Name: ".text", Off: 0, Len: 16 * PageSize}})
	if err != nil {
		t.Fatal(err)
	}
	m := f.Map()
	m.Touch(2 * PageSize)
	if got := f.ResidentPages(); got != 4 {
		t.Fatalf("resident = %d, want 4 (budget)", got)
	}
	if !f.resident[2] {
		t.Fatal("faulting page not resident")
	}
	if int64(f.ResidentPages()) != f.ReadInPages()-f.EvictedPages() {
		t.Fatalf("reconciliation broken: %d != %d-%d", f.ResidentPages(), f.ReadInPages(), f.EvictedPages())
	}
}

func TestEvictCauseStrings(t *testing.T) {
	if EvictBudget.String() != "budget" || EvictPressure.String() != "pressure" || EvictDrop.String() != "drop" {
		t.Fatal("cause names")
	}
	if EvictCause(99).String() != "unknown" {
		t.Fatal("unknown name")
	}
}
