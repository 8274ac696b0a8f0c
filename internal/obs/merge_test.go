package obs

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

func TestMergeSnapshotsEmpty(t *testing.T) {
	m := MergeSnapshots()
	if m.Schema != SchemaVersion {
		t.Errorf("schema = %q", m.Schema)
	}
	if len(m.Counters)+len(m.Gauges)+len(m.Histograms)+len(m.Spans)+len(m.Timelines) != 0 {
		t.Errorf("empty merge not empty: %+v", m)
	}
	if m2 := MergeSnapshots(nil, nil); len(m2.Counters) != 0 {
		t.Errorf("nil snapshots not skipped: %+v", m2)
	}
}

func TestMergeSnapshotsScalars(t *testing.T) {
	a := &Snapshot{
		Counters: []CounterPoint{{Name: "c.shared", Value: 3}, {Name: "c.only_a", Value: 1}},
		Gauges:   []GaugePoint{{Name: "g", Value: 1.5}},
	}
	b := &Snapshot{
		Counters: []CounterPoint{{Name: "c.shared", Value: 4}},
		Gauges:   []GaugePoint{{Name: "g", Value: 2.5}, {Name: "g.only_b", Value: 9}},
	}
	m := MergeSnapshots(a, nil, b)
	if got := m.Counter("c.shared"); got != 7 {
		t.Errorf("shared counter = %d, want 7", got)
	}
	if got := m.Counter("c.only_a"); got != 1 {
		t.Errorf("only_a = %d", got)
	}
	// Gauges keep the last value in argument order.
	if got := m.Gauge("g"); got != 2.5 {
		t.Errorf("gauge = %v, want last-wins 2.5", got)
	}
	if got := m.Gauge("g.only_b"); got != 9 {
		t.Errorf("only_b gauge = %v", got)
	}
	// Output is name-sorted like Registry.Snapshot.
	if m.Counters[0].Name != "c.only_a" || m.Counters[1].Name != "c.shared" {
		t.Errorf("counters unsorted: %+v", m.Counters)
	}
}

func TestMergeSnapshotsHistograms(t *testing.T) {
	bounds := []float64{1, 10}
	a := &Snapshot{Histograms: []HistogramPoint{
		{Name: "h", Bounds: bounds, Counts: []int64{1, 2, 3}, Count: 6, Sum: 30},
	}}
	b := &Snapshot{Histograms: []HistogramPoint{
		{Name: "h", Bounds: bounds, Counts: []int64{4, 0, 1}, Count: 5, Sum: 12},
	}}
	m := MergeSnapshots(a, b)
	h := m.Histograms[0]
	if !reflect.DeepEqual(h.Counts, []int64{5, 2, 4}) || h.Count != 11 || h.Sum != 42 {
		t.Errorf("merged histogram: %+v", h)
	}

	// Mismatched bounds: first layout kept, totals still accumulate.
	c := &Snapshot{Histograms: []HistogramPoint{
		{Name: "h", Bounds: []float64{5}, Counts: []int64{7, 7}, Count: 14, Sum: 100},
	}}
	m = MergeSnapshots(a, c)
	h = m.Histograms[0]
	if !reflect.DeepEqual(h.Bounds, bounds) || !reflect.DeepEqual(h.Counts, []int64{1, 2, 3}) {
		t.Errorf("mismatched bounds must keep first layout: %+v", h)
	}
	if h.Count != 20 || h.Sum != 130 {
		t.Errorf("totals must accumulate despite bound mismatch: %+v", h)
	}
}

func TestMergeSnapshotsSequenceRebasing(t *testing.T) {
	// Fixtures shaped like the osim.faults timeline: the trailing "section"
	// column carries the section index, which must survive rebasing —
	// sequence numbers shift, the per-event values do not.
	faultFields := []string{"offset", "page", "major", "io_nanos", "section"}
	a := &Snapshot{
		Spans: []SpanPoint{{Seq: 1, Name: "build"}, {Seq: 3, Name: "link"}},
		Timelines: []TimelinePoint{{
			Name: "osim.faults", Fields: faultFields,
			Events: []TimelineEvent{{Seq: 2, Label: ".text", Values: []int64{4096, 1, 1, 96000, 0}}},
		}},
	}
	b := &Snapshot{
		Spans: []SpanPoint{{Seq: 1, Name: "build2"}},
		Timelines: []TimelinePoint{{
			Name: "osim.faults", Fields: faultFields,
			Events: []TimelineEvent{{Seq: 2, Label: ".svm_heap", Values: []int64{40960, 10, 0, 0, 1}}},
		}},
	}
	m := MergeSnapshots(a, b)
	// b's events are rebased past a's max seq (3): order a then b.
	wantSpans := []SpanPoint{{Seq: 1, Name: "build"}, {Seq: 3, Name: "link"}, {Seq: 4, Name: "build2"}}
	if !reflect.DeepEqual(m.Spans, wantSpans) {
		t.Errorf("spans = %+v, want %+v", m.Spans, wantSpans)
	}
	tl := m.Timeline("osim.faults")
	if tl == nil || len(tl.Events) != 2 {
		t.Fatalf("timeline = %+v", tl)
	}
	if !reflect.DeepEqual(tl.Fields, faultFields) {
		t.Errorf("merged fields = %v", tl.Fields)
	}
	if tl.Events[0].Label != ".text" || tl.Events[0].Seq != 2 {
		t.Errorf("first event: %+v", tl.Events[0])
	}
	if tl.Events[1].Label != ".svm_heap" || tl.Events[1].Seq != 5 {
		t.Errorf("rebased event: %+v", tl.Events[1])
	}
	// The section column (and every other value) is untouched by the merge:
	// merged snapshots from parallel builds remain attributable by index.
	if !reflect.DeepEqual(tl.Events[0].Values, []int64{4096, 1, 1, 96000, 0}) {
		t.Errorf("first event values mutated: %+v", tl.Events[0].Values)
	}
	if !reflect.DeepEqual(tl.Events[1].Values, []int64{40960, 10, 0, 0, 1}) {
		t.Errorf("rebased event values mutated: %+v", tl.Events[1].Values)
	}
}

// Merging real registry snapshots must be deterministic in argument order.
func TestMergeSnapshotsRegistries(t *testing.T) {
	snap := func(n int64) *Snapshot {
		r := NewRegistry()
		r.Counter("work").Add(n)
		r.Gauge("last").Set(float64(n))
		sp := r.StartSpan("stage")
		sp.End()
		return r.Snapshot()
	}
	a, b := snap(1), snap(2)
	m1 := MergeSnapshots(a, b)
	m2 := MergeSnapshots(a, b)
	if !reflect.DeepEqual(m1, m2) {
		t.Error("merge not deterministic")
	}
	if m1.Counter("work") != 3 || m1.Gauge("last") != 2 {
		t.Errorf("merged registry values: %+v", m1)
	}
	if len(m1.Spans) != 2 {
		t.Errorf("spans = %+v", m1.Spans)
	}
}

// TestMergeSnapshotsStreamHistograms is the serve-stream merge contract:
// per-stream latency histograms recorded by independent registries (one
// per concurrent stream, as the multi-stream serve harness does) merge
// into quantiles identical to a single histogram observing the union of
// all samples, regardless of merge order.
func TestMergeSnapshotsStreamHistograms(t *testing.T) {
	bounds := LatencyBuckets()
	streams := [][]float64{
		{150, 900, 42e3, 1.5e6, 300},
		{75, 75, 2.1e6, 512, 64e3},
		{9e6, 250, 250, 1e3, 33e3},
	}
	var snaps []*Snapshot
	union := NewRegistry()
	uh := union.Histogram("serve.latency_nanos", bounds)
	for _, samples := range streams {
		r := NewRegistry()
		h := r.Histogram("serve.latency_nanos", bounds)
		for _, v := range samples {
			h.Observe(v)
			uh.Observe(v)
		}
		snaps = append(snaps, r.Snapshot())
	}
	want := union.Snapshot().Histograms[0]

	merged := MergeSnapshots(snaps...)
	reversed := MergeSnapshots(snaps[2], snaps[1], snaps[0])
	for _, m := range []*Snapshot{merged, reversed} {
		if len(m.Histograms) != 1 {
			t.Fatalf("merged %d histograms, want 1", len(m.Histograms))
		}
		got := m.Histograms[0]
		if got.Count != want.Count || got.Sum != want.Sum {
			t.Errorf("merged count/sum %d/%v, want %d/%v", got.Count, got.Sum, want.Count, want.Sum)
		}
		if !reflect.DeepEqual(got.Counts, want.Counts) {
			t.Errorf("merged bucket counts %v, want union %v", got.Counts, want.Counts)
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			if got.Quantile(q) != want.Quantile(q) {
				t.Errorf("merged q%v = %v, union = %v", q, got.Quantile(q), want.Quantile(q))
			}
		}
	}
}

// TestMergeSnapshotsTenantTimelines is the fleet merge contract: the
// per-tenant burst timelines the fleet harness records (one timeline per
// tenant inside each build's registry) merge order-independently — every
// tenant keeps its own event stream with the values untouched and the
// per-snapshot event order preserved, no matter which build's snapshot
// is merged first.
func TestMergeSnapshotsTenantTimelines(t *testing.T) {
	burstFields := []string{"requests", "p50_nanos", "p99_nanos", "major", "minor", "refaults", "evicted", "resident"}
	build := func(seed int64) *Snapshot {
		r := NewRegistry()
		for tenant := 0; tenant < 2; tenant++ {
			tl := r.Timeline(fmt.Sprintf("fleet.tenant%02d.burst", tenant), burstFields...)
			for b := int64(0); b < 3; b++ {
				tl.Record(fmt.Sprintf("burst%d", b),
					8, 100*seed+b, 900*seed+b, seed, 2*seed, b, 4*b, 96-b)
			}
		}
		return r.Snapshot()
	}
	a, b := build(1), build(2)
	forward := MergeSnapshots(a, b)
	reversed := MergeSnapshots(b, a)

	for tenant := 0; tenant < 2; tenant++ {
		name := fmt.Sprintf("fleet.tenant%02d.burst", tenant)
		fw, rv := forward.Timeline(name), reversed.Timeline(name)
		if fw == nil || rv == nil {
			t.Fatalf("tenant timeline %s lost in merge", name)
		}
		if !reflect.DeepEqual(fw.Fields, burstFields) {
			t.Errorf("%s fields = %v", name, fw.Fields)
		}
		if len(fw.Events) != 6 || len(rv.Events) != 6 {
			t.Fatalf("%s events: forward %d, reversed %d, want 6", name, len(fw.Events), len(rv.Events))
		}
		// The same (label, values) multiset lands regardless of merge order:
		// only the sequence rebasing — hence which build's events come
		// first — depends on argument order.
		strip := func(evs []TimelineEvent) []TimelineEvent {
			out := make([]TimelineEvent, len(evs))
			copy(out, evs)
			for i := range out {
				out[i].Seq = 0
			}
			sort.Slice(out, func(i, j int) bool {
				if out[i].Label != out[j].Label {
					return out[i].Label < out[j].Label
				}
				return out[i].Values[1] < out[j].Values[1]
			})
			return out
		}
		if !reflect.DeepEqual(strip(fw.Events), strip(rv.Events)) {
			t.Errorf("%s: merge order changed the per-tenant events\nforward:  %+v\nreversed: %+v",
				name, fw.Events, rv.Events)
		}
		// Within one merge, each snapshot's events keep their relative order
		// and their values: the three bursts of each build stay contiguous
		// and ascending.
		for i := 1; i < 3; i++ {
			if fw.Events[i].Seq <= fw.Events[i-1].Seq {
				t.Errorf("%s: first build's bursts reordered: %+v", name, fw.Events[:3])
			}
		}
		if !reflect.DeepEqual(fw.Events[0].Values, []int64{8, 100, 900, 1, 2, 0, 0, 96}) {
			t.Errorf("%s: first burst values mutated: %+v", name, fw.Events[0].Values)
		}
	}
}
