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
	log := &pageLog{}
	m.Observe(log)
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
	// The observed fault and the mapped window are clamped to the file.
	faults := log.of(PageFault)
	if len(faults) != 1 {
		t.Fatalf("observed %d faults", len(faults))
	}
	ev := faults[0]
	if ev.Section != 1 {
		t.Errorf("event section = %d, want 1 (.svm_heap)", ev.Section)
	}
	if ev.ReadPages != 5 {
		t.Errorf("read %d pages, want the clamped cluster of 5", ev.ReadPages)
	}
	for p, st := range m.PageClasses() {
		if mapped := st != PageUntouched; mapped != (p >= 8) {
			t.Errorf("page %d state %d, want window [8,%d)", p, st, pages)
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
	log := &pageLog{}
	m2.Observe(log)
	m2.Touch(0)            // minor (.text)
	m2.Touch(4 * PageSize) // major (.text)
	m2.Touch(8 * PageSize) // major (.svm_heap)
	faults := log.of(PageFault)
	if int64(len(faults)) != m2.Faults {
		t.Fatalf("observed %d faults, mapping counted %d", len(faults), m2.Faults)
	}
	want := []struct {
		major   bool
		section int
	}{{false, 0}, {true, 0}, {true, 1}}
	for i, w := range want {
		ev := faults[i]
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
