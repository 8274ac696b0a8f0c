package image

import (
	"fmt"
	"testing"

	"nimage/internal/core"
	"nimage/internal/graal"
	"nimage/internal/heap"
	"nimage/internal/obs/attrib"
)

func runAttributed(t *testing.T, img *Image) (*Process, *attrib.Table) {
	t.Helper()
	o := testOS()
	o.AttributeFaults = true
	proc, err := img.NewProcess(o, vmHooksNone())
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.Run(); err != nil {
		t.Fatal(err)
	}
	tab := proc.AttributionTable()
	proc.Close()
	if tab == nil {
		t.Fatal("AttributeFaults set but no attribution table")
	}
	return proc, tab
}

// The acceptance criterion of the attribution stream: its per-section
// totals reconcile *exactly* with osim's SectionFaults counters — the
// per-symbol view is a refinement of the existing metrics, not a parallel
// bookkeeping that can drift.
func TestAttributionReconcilesWithSectionFaults(t *testing.T) {
	p := buildApp(t)
	img, err := Build(p, regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	proc, tab := runAttributed(t, img)

	for _, name := range []string{SectionText, SectionHeap} {
		want := proc.Mapping.SectionFaults(name)
		got := tab.Section(name)
		if got.Major != want.Major || got.Minor != want.Minor {
			t.Errorf("%s: attribution %d/%d, osim counters %d/%d",
				name, got.Major, got.Minor, want.Major, want.Minor)
		}
	}
	if tab.TotalFaults() != proc.Mapping.Faults {
		t.Errorf("attribution total %d != mapping faults %d",
			tab.TotalFaults(), proc.Mapping.Faults)
	}
	if tab.Workload != "app" {
		t.Errorf("workload = %q", tab.Workload)
	}

	// Every faulted page resolves to at least one symbol: the layout's
	// symbols plus <header>/<native> cover every byte a run can touch.
	ix := img.AttributionIndex()
	for _, h := range tab.Heat {
		if len(ix.SymbolsOnPage(int(h.Page))) == 0 {
			t.Errorf("faulted page %d has no symbols", h.Page)
		}
	}

	// All symbol kinds that can fault are represented.
	kinds := map[string]bool{}
	for _, s := range tab.Symbols {
		kinds[s.Kind] = true
	}
	for _, k := range []string{attrib.KindHeader, attrib.KindCU, attrib.KindNative, attrib.KindObject} {
		if !kinds[k] {
			t.Errorf("no faulted symbol of kind %q", k)
		}
	}
}

func TestAttributionDisabledByDefault(t *testing.T) {
	p := buildApp(t)
	img, err := Build(p, regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	proc, err := img.NewProcess(testOS(), vmHooksNone())
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()
	if proc.Attrib != nil || proc.AttributionTable() != nil {
		t.Error("attribution recorder attached without registry or flag")
	}
}

// Diffing a regular build against a CU-ordered build by symbol name must
// show eliminated cold CUs: the reordering's entire point is that the
// pages of startup-hot CUs stop sharing pages with cold ones.
func TestAttributionDiffAcrossLayouts(t *testing.T) {
	p := buildApp(t)
	reg, err := Build(p, regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	_, base := runAttributed(t, reg)
	base.Layout = "identity"

	res, err := BuildOptimized(p, PipelineOptions{
		Compiler:         graal.DefaultConfig(),
		Strategy:         core.StrategyCU,
		InstrumentedSeed: 7,
		OptimizedSeed:    9,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, opt := runAttributed(t, res.Optimized)
	opt.Layout = "cu"

	d := attrib.DiffTables(base, opt)
	if len(d.Eliminated) == 0 {
		t.Fatalf("cu ordering eliminated no cold symbols: %d -> %d faults",
			d.BaselineFaults, d.OptimizedFaults)
	}
	if d.OptimizedFaults >= d.BaselineFaults {
		t.Errorf("faults %d -> %d (no reduction)", d.BaselineFaults, d.OptimizedFaults)
	}
	// CU symbol names line up across the two independent builds.
	cuNamed := false
	for _, e := range d.Eliminated {
		if e.Kind == attrib.KindCU {
			cuNamed = true
			break
		}
	}
	if !cuNamed {
		t.Errorf("no CU among eliminated symbols: %+v", d.Eliminated)
	}
	// The native tail faults under every layout (Fig. 6) and so must
	// survive the diff rather than appear eliminated or new.
	survivedNative := false
	for _, e := range d.Survived {
		if e.Name == SymbolNative {
			survivedNative = true
		}
	}
	if !survivedNative {
		t.Error("native region missing from survived symbols")
	}
}

// Two cold runs of the same image produce identical tables (rollback plus
// DropCaches restore pristine state), and a warm run drops the majors.
func TestAttributionDeterministicAndWarm(t *testing.T) {
	p := buildApp(t)
	img, err := Build(p, regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := testOS()
	o.AttributeFaults = true
	run := func(drop bool) *attrib.Table {
		if drop {
			o.DropCaches()
		}
		proc, err := img.NewProcess(o, vmHooksNone())
		if err != nil {
			t.Fatal(err)
		}
		defer proc.Close()
		if err := proc.Run(); err != nil {
			t.Fatal(err)
		}
		return proc.AttributionTable()
	}
	t1 := run(true)
	t2 := run(true)
	warm := run(false)
	if t1.TotalFaults() != t2.TotalFaults() || len(t1.Symbols) != len(t2.Symbols) {
		t.Errorf("cold runs differ: %d/%d faults, %d/%d symbols",
			t1.TotalFaults(), t2.TotalFaults(), len(t1.Symbols), len(t2.Symbols))
	}
	for i := range t1.Symbols {
		if t1.Symbols[i] != t2.Symbols[i] {
			t.Errorf("symbol %d differs: %+v vs %+v", i, t1.Symbols[i], t2.Symbols[i])
			break
		}
	}
	var coldMajor, warmMajor int64
	for _, s := range t1.Sections {
		coldMajor += s.Major
	}
	for _, s := range warm.Sections {
		warmMajor += s.Major
	}
	if coldMajor == 0 || warmMajor >= coldMajor {
		t.Errorf("major faults cold %d, warm %d", coldMajor, warmMajor)
	}
}

// Object names must not depend on the layout order of the heap section —
// they follow snapshot encounter order, which is what makes cross-layout
// diffs line up.
func TestObjectNamesStableUnderReordering(t *testing.T) {
	p := buildApp(t)
	img, err := Build(p, regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	names, types := img.objectNames()
	metadata := map[*heap.Object]bool{}
	for _, hub := range img.Hubs {
		metadata[hub] = true
	}
	for _, meta := range img.MetaBlobs {
		metadata[meta] = true
	}
	seen := map[string]bool{}
	ordinals := map[string]int{}
	for k, o := range img.Snapshot.Objects {
		n := names[k]
		if n == "" {
			t.Fatalf("object %d unnamed", o.SeqID())
		}
		if seen[n] {
			t.Fatalf("duplicate object name %q", n)
		}
		seen[n] = true
		if types[k] != o.TypeName() {
			t.Fatalf("object %d has type name %q, want %q", k, types[k], o.TypeName())
		}
		if !metadata[o] {
			// "Type#k", k counted per type in encounter order.
			want := fmt.Sprintf("%s#%d", o.TypeName(), ordinals[o.TypeName()])
			ordinals[o.TypeName()]++
			if n != want {
				t.Fatalf("object %d named %q, want %q", k, n, want)
			}
		}
	}
	for c, hub := range img.Hubs {
		if names[hub.SeqID()] != "hub:"+c.Name {
			t.Errorf("hub of %s named %q", c.Name, names[hub.SeqID()])
		}
	}
	byObject := img.ObjectNames()
	for k, o := range img.Snapshot.Objects {
		if byObject[o] != names[k] {
			t.Fatalf("ObjectNames names object %d %q, want %q", k, byObject[o], names[k])
		}
	}
}
