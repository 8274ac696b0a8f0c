package image

import (
	"testing"
)

// TestAffinityReconcilesWithMapping: with both attribution and affinity
// observing the mapping, the affinity graph's totals reconcile
// exactly with the mapping's fault counters and the file's eviction
// counters — the graph is a refinement of osim's metrics, not a
// parallel bookkeeping that can drift.
func TestAffinityReconcilesWithMapping(t *testing.T) {
	p := buildApp(t)
	img, err := Build(p, regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := testOS()
	o.AttributeFaults = true
	o.TrackAffinity = true
	proc, err := img.NewProcess(o, vmHooksNone())
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()
	if err := proc.Run(); err != nil {
		t.Fatal(err)
	}
	g := proc.AffinityGraph()
	if g == nil {
		t.Fatal("TrackAffinity set but no affinity graph")
	}
	if g.Workload != "app" {
		t.Errorf("workload = %q", g.Workload)
	}
	if g.Faults != proc.Mapping.Faults {
		t.Errorf("graph faults %d != mapping faults %d", g.Faults, proc.Mapping.Faults)
	}
	if g.Major != proc.Mapping.MajorFaults {
		t.Errorf("graph major %d != mapping major %d", g.Major, proc.Mapping.MajorFaults)
	}
	if g.Refaults != proc.Mapping.Refaults {
		t.Errorf("graph refaults %d != mapping refaults %d", g.Refaults, proc.Mapping.Refaults)
	}
	var nodeFaults int64
	for _, n := range g.Nodes {
		nodeFaults += n.Faults
	}
	if nodeFaults != g.Faults {
		t.Errorf("node fault sum %d != graph faults %d", nodeFaults, g.Faults)
	}
	if g.AccessEvents == 0 || len(g.Edges) == 0 || g.Windows == 0 {
		t.Errorf("degenerate graph: %d accesses, %d edges, %d windows",
			g.AccessEvents, len(g.Edges), g.Windows)
	}

	// The second observer did not starve attribution: the table still
	// reconciles.
	tab := proc.AttributionTable()
	if tab == nil {
		t.Fatal("attribution recorder missing next to affinity")
	}
	if tab.TotalFaults() != proc.Mapping.Faults {
		t.Errorf("attribution total %d != mapping faults %d",
			tab.TotalFaults(), proc.Mapping.Faults)
	}
}

// TestAffinityDisabledByDefault: no registry and no flag means no
// recorder.
func TestAffinityDisabledByDefault(t *testing.T) {
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
	if proc.Affinity != nil || proc.AffinityGraph() != nil {
		t.Error("affinity recorder attached without registry or flag")
	}
}

// TestAffinityAloneWithoutAttribution: TrackAffinity without
// AttributeFaults attaches the affinity recorder as the mapping's only
// observer, and it still reconciles.
func TestAffinityAloneWithoutAttribution(t *testing.T) {
	p := buildApp(t)
	img, err := Build(p, regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := testOS()
	o.TrackAffinity = true
	proc, err := img.NewProcess(o, vmHooksNone())
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()
	if err := proc.Run(); err != nil {
		t.Fatal(err)
	}
	if proc.Attrib != nil {
		t.Fatal("attribution attached without its flag")
	}
	g := proc.AffinityGraph()
	if g == nil {
		t.Fatal("no affinity graph")
	}
	if g.Faults != proc.Mapping.Faults {
		t.Errorf("graph faults %d != mapping faults %d", g.Faults, proc.Mapping.Faults)
	}
}
