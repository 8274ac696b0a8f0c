package osim

import (
	"testing"
	"testing/quick"
	"time"
)

func newTestFile(t *testing.T, o *OS, pages int) *File {
	t.Helper()
	size := int64(pages) * PageSize
	f, err := o.NewFile("bin", size, []Section{
		{Name: ".text", Off: 0, Len: size / 2},
		{Name: ".svm_heap", Off: size / 2, Len: size / 2},
	})
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	return f
}

func TestColdTouchIsMajorFault(t *testing.T) {
	o := NewOS(SSD())
	o.FaultAround = 1
	f := newTestFile(t, o, 16)
	m := f.Map()
	m.Touch(0)
	if m.Faults != 1 || m.MajorFaults != 1 {
		t.Fatalf("faults = %d major = %d", m.Faults, m.MajorFaults)
	}
	if m.IOTime != SSD().SeekLatency+SSD().PerPage {
		t.Fatalf("IOTime = %v", m.IOTime)
	}
	// Second touch of the same page: no fault.
	m.Touch(100)
	if m.Faults != 1 {
		t.Fatalf("second touch faulted: %d", m.Faults)
	}
}

func TestMinorFaultAfterPageCacheHit(t *testing.T) {
	o := NewOS(SSD())
	o.FaultAround = 1
	f := newTestFile(t, o, 16)
	m1 := f.Map()
	m1.Touch(0)
	// New mapping (new process), page still resident.
	m2 := f.Map()
	m2.Touch(0)
	if m2.MajorFaults != 0 || m2.Faults != 1 {
		t.Fatalf("faults = %d major = %d, want minor fault", m2.Faults, m2.MajorFaults)
	}
	if m2.IOTime != 0 {
		t.Fatalf("minor fault cost I/O: %v", m2.IOTime)
	}
	sf := m2.SectionFaults(".text")
	if sf.Minor != 1 || sf.Major != 0 {
		t.Fatalf("section faults = %+v", sf)
	}
}

func TestDropCachesForcesMajorFaults(t *testing.T) {
	o := NewOS(SSD())
	o.FaultAround = 1
	f := newTestFile(t, o, 16)
	f.Map().Touch(0)
	o.DropCaches()
	m := f.Map()
	m.Touch(0)
	if m.MajorFaults != 1 {
		t.Fatalf("major faults after drop = %d", m.MajorFaults)
	}
}

func TestFaultAroundMapsCluster(t *testing.T) {
	o := NewOS(SSD())
	o.FaultAround = 4
	f := newTestFile(t, o, 16)
	m := f.Map()
	m.Touch(PageSize) // page 1: cluster [0,4)
	if m.Faults != 1 {
		t.Fatalf("faults = %d", m.Faults)
	}
	// Pages 0,2,3 are mapped without faults.
	m.Touch(0)
	m.Touch(2 * PageSize)
	m.Touch(3 * PageSize)
	if m.Faults != 1 {
		t.Fatalf("fault-around pages faulted: %d", m.Faults)
	}
	// Page 4 is outside the cluster.
	m.Touch(4 * PageSize)
	if m.Faults != 2 {
		t.Fatalf("page outside cluster did not fault: %d", m.Faults)
	}
}

func TestSequentialBeatsScattered(t *testing.T) {
	// The core premise of the paper: compact layouts fault less than
	// scattered ones for the same number of touched items.
	const pages = 256
	const touches = 32

	run := func(stride int) int64 {
		o := NewOS(SSD())
		f := newTestFile(t, o, pages)
		m := f.Map()
		for i := 0; i < touches; i++ {
			m.Touch(int64(i*stride) * PageSize)
		}
		return m.Faults
	}
	seq := run(1)
	scat := run(8)
	if seq >= scat {
		t.Fatalf("sequential faults %d >= scattered %d", seq, scat)
	}
}

func TestSectionAttribution(t *testing.T) {
	o := NewOS(SSD())
	o.FaultAround = 1
	f := newTestFile(t, o, 16)
	m := f.Map()
	m.Touch(0)            // .text
	m.Touch(8 * PageSize) // .svm_heap (file is 16 pages; heap at half)
	m.Touch(9 * PageSize) // .svm_heap
	if got := m.SectionFaults(".text").Total(); got != 1 {
		t.Errorf(".text faults = %d", got)
	}
	if got := m.SectionFaults(".svm_heap").Total(); got != 2 {
		t.Errorf(".svm_heap faults = %d", got)
	}
}

func TestTouchRangeSpansPages(t *testing.T) {
	o := NewOS(SSD())
	o.FaultAround = 1
	f := newTestFile(t, o, 16)
	m := f.Map()
	// An object straddling a page boundary touches two pages.
	m.TouchRange(PageSize-8, 16)
	if m.Faults != 2 {
		t.Fatalf("faults = %d, want 2", m.Faults)
	}
	m2 := f.Map()
	m2.TouchRange(0, 0)
	if m2.Faults != 0 {
		t.Fatalf("zero-length range faulted")
	}
}

func TestPageStates(t *testing.T) {
	o := NewOS(SSD())
	o.FaultAround = 4
	f := newTestFile(t, o, 16)
	m := f.Map()
	m.Touch(0) // cluster [0,4) mapped, page 0 faulted
	st := m.PageStates(".text")
	if len(st) != 8 {
		t.Fatalf("len = %d", len(st))
	}
	if st[0] != PageFaulted {
		t.Errorf("page 0 = %v, want faulted", st[0])
	}
	for i := 1; i < 4; i++ {
		if st[i] != PageMappedNoFault {
			t.Errorf("page %d = %v, want mapped-no-fault", i, st[i])
		}
	}
	for i := 4; i < 8; i++ {
		if st[i] != PageUntouched {
			t.Errorf("page %d = %v, want untouched", i, st[i])
		}
	}
	if m.PageStates("nope") != nil {
		t.Error("unknown section should return nil")
	}
}

func TestOverlappingSectionsRejected(t *testing.T) {
	o := NewOS(SSD())
	_, err := o.NewFile("x", 4*PageSize, []Section{
		{Name: "a", Off: 0, Len: 2 * PageSize},
		{Name: "b", Off: PageSize, Len: 2 * PageSize},
	})
	if err == nil {
		t.Fatal("overlap accepted")
	}
	_, err = o.NewFile("x", 4*PageSize, []Section{{Name: "a", Off: 0, Len: 5 * PageSize}})
	if err == nil {
		t.Fatal("out-of-bounds section accepted")
	}
}

func TestFaultCountInvariants(t *testing.T) {
	// Property: for any touch sequence, faults <= distinct pages touched,
	// major faults <= faults, and every touched page is mapped afterwards.
	f := func(offs []uint16) bool {
		o := NewOS(SSD())
		file, err := o.NewFile("f", 64*PageSize, nil)
		if err != nil {
			return false
		}
		m := file.Map()
		distinct := map[int64]bool{}
		for _, raw := range offs {
			off := int64(raw) % (64 * PageSize)
			m.Touch(off)
			distinct[off/PageSize] = true
		}
		if m.Faults > int64(len(distinct)) || m.MajorFaults > m.Faults {
			return false
		}
		for p := range distinct {
			if !m.mapped[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIOTimeMonotoneInFaults(t *testing.T) {
	o := NewOS(NFS())
	f := newTestFile(t, o, 64)
	m := f.Map()
	var prev time.Duration
	for i := 0; i < 8; i++ {
		m.Touch(int64(i*8) * PageSize)
		if m.IOTime <= prev {
			t.Fatalf("IOTime not increasing at touch %d", i)
		}
		prev = m.IOTime
	}
}

func TestTouchOutOfRangePanics(t *testing.T) {
	o := NewOS(SSD())
	f := newTestFile(t, o, 4)
	m := f.Map()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range touch")
		}
	}()
	m.Touch(f.Size)
}

// faultLog collects observed fault events for the tests below.
type faultLog struct{ events []FaultEvent }

func (l *faultLog) OnFault(ev FaultEvent) { l.events = append(l.events, ev) }

// TestFaultAroundTailClamped is the regression test for window clamping at
// the end of the file: a fault inside the last, partial fault-around
// cluster must never attribute counts past the section table or read/map
// pages past the file size.
func TestFaultAroundTailClamped(t *testing.T) {
	o := NewOS(SSD())
	o.FaultAround = 8
	// 13 pages: the last cluster [8, 16) extends 3 pages past the file.
	const pages = 13
	size := int64(pages) * PageSize
	f, err := o.NewFile("bin", size, []Section{
		{Name: ".text", Off: 0, Len: 10 * PageSize},
		{Name: ".svm_heap", Off: 10 * PageSize, Len: size - 10*PageSize},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := f.Map()
	log := &faultLog{}
	m.Observer = log
	m.Touch(size - 1) // last byte: page 12, cluster [8, 16) clamped to [8, 13)
	if m.Faults != 1 || m.MajorFaults != 1 {
		t.Fatalf("faults = %d major = %d", m.Faults, m.MajorFaults)
	}
	if got := f.ResidentPages(); got != 5 {
		t.Errorf("resident pages = %d, want clamped cluster of 5", got)
	}
	// The fault is attributed inside the section table, never past it.
	all := m.AllSectionFaults()
	if len(all) != len(f.Sections)+1 {
		t.Fatalf("AllSectionFaults length = %d", len(all))
	}
	if all[1].Major != 1 || all[0].Total() != 0 || all[2].Total() != 0 {
		t.Errorf("tail fault misattributed: %+v", all)
	}
	// The observed event's window is clamped to the file's page count.
	if len(log.events) != 1 {
		t.Fatalf("observed %d events", len(log.events))
	}
	ev := log.events[0]
	if ev.Section != 1 {
		t.Errorf("event section = %d, want 1 (.svm_heap)", ev.Section)
	}
	if ev.MappedEnd > pages || ev.ReadPages > pages {
		t.Errorf("window past file end: %+v", ev)
	}
	if ev.MappedStart != 8 || ev.MappedEnd != pages {
		t.Errorf("window = [%d,%d), want [8,%d)", ev.MappedStart, ev.MappedEnd, pages)
	}
	// Same at the tail under adaptive readahead with an escalated window.
	o2 := NewOS(SSD())
	o2.FaultAround = 4
	o2.AdaptiveReadahead = true
	o2.MaxReadahead = 32
	f2, err := o2.NewFile("bin2", size, []Section{{Name: ".text", Off: 0, Len: size}})
	if err != nil {
		t.Fatal(err)
	}
	m2 := f2.Map()
	log2 := &faultLog{}
	m2.Observer = log2
	for p := 0; p < pages; p++ {
		m2.Touch(int64(p) * PageSize)
	}
	for _, ev := range log2.events {
		if ev.MappedEnd > pages {
			t.Errorf("adaptive window past file end: %+v", ev)
		}
		if ev.Section != 0 {
			t.Errorf("event outside section table: %+v", ev)
		}
	}
}

// TestFaultObserverSeesEveryFault pins the observer contract: one event per
// fault, in order, with major/minor and section indices matching the
// mapping's own accounting.
func TestFaultObserverSeesEveryFault(t *testing.T) {
	o := NewOS(SSD())
	o.FaultAround = 2
	f := newTestFile(t, o, 16)
	m1 := f.Map()
	m1.Touch(0) // warm pages 0-1
	m2 := f.Map()
	log := &faultLog{}
	m2.Observer = log
	m2.Touch(0)            // minor (.text)
	m2.Touch(4 * PageSize) // major (.text)
	m2.Touch(8 * PageSize) // major (.svm_heap)
	if int64(len(log.events)) != m2.Faults {
		t.Fatalf("observed %d events, mapping counted %d faults", len(log.events), m2.Faults)
	}
	want := []struct {
		major   bool
		section int
	}{{false, 0}, {true, 0}, {true, 1}}
	for i, w := range want {
		ev := log.events[i]
		if ev.Major != w.major || ev.Section != w.section {
			t.Errorf("event %d = %+v, want major=%v section=%d", i, ev, w.major, w.section)
		}
		if ev.Page != int(ev.Off/PageSize) {
			t.Errorf("event %d page/offset mismatch: %+v", i, ev)
		}
		if ev.Major && ev.IONanos <= 0 {
			t.Errorf("major fault without I/O time: %+v", ev)
		}
		if !ev.Major && (ev.IONanos != 0 || ev.ReadPages != 0) {
			t.Errorf("minor fault with I/O: %+v", ev)
		}
	}
}

func TestAdaptiveReadaheadEscalates(t *testing.T) {
	// Sequential cluster-by-cluster faults escalate the window, so a long
	// sequential scan takes far fewer major faults than with the fixed
	// window; a strided scan gets no benefit.
	const pages = 256
	run := func(adaptive bool, stride int) int64 {
		o := NewOS(SSD())
		o.FaultAround = 2
		o.AdaptiveReadahead = adaptive
		o.MaxReadahead = 32
		f, err := o.NewFile("bin", pages*PageSize, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := f.Map()
		for p := 0; p < pages; p += stride {
			m.Touch(int64(p) * PageSize)
		}
		return m.MajorFaults
	}
	seqFixed := run(false, 1)
	seqAdaptive := run(true, 1)
	if seqAdaptive*2 >= seqFixed {
		t.Errorf("adaptive sequential faults %d not well below fixed %d", seqAdaptive, seqFixed)
	}
	stridedFixed := run(false, 8)
	stridedAdaptive := run(true, 8)
	if stridedAdaptive != stridedFixed {
		t.Errorf("adaptive changed strided faults: %d vs %d", stridedAdaptive, stridedFixed)
	}
}

func TestAdaptiveReadaheadWindowCapped(t *testing.T) {
	o := NewOS(SSD())
	o.FaultAround = 2
	o.AdaptiveReadahead = true
	o.MaxReadahead = 8
	f, err := o.NewFile("bin", 512*PageSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := f.Map()
	for p := 0; p < 512; p++ {
		m.Touch(int64(p) * PageSize)
	}
	// With a cap of 8 pages, steady state is one major fault per 8 pages.
	if m.MajorFaults < 512/8 {
		t.Errorf("major faults %d below the capped-window floor", m.MajorFaults)
	}
	if m.MajorFaults > 512/8+16 {
		t.Errorf("major faults %d: cap not respected", m.MajorFaults)
	}
}
