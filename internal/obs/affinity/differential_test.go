package affinity_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"nimage/internal/graal"
	"nimage/internal/heap"
	"nimage/internal/image"
	"nimage/internal/murmur"
	"nimage/internal/obs/affinity"
	"nimage/internal/obs/attrib"
	"nimage/internal/osim"
	"nimage/internal/vm"
	"nimage/internal/workloads"
)

// eventLog is an osim.PageObserver that keeps every event it observes.
type eventLog []osim.PageEvent

func (l *eventLog) OnPageEvent(ev osim.PageEvent) { *l = append(*l, ev) }

// replay feeds the stream to the production and the reference recorder
// and returns both graphs.
func replay(ix *attrib.Index, cfg affinity.Config, events []osim.PageEvent) (got, want *affinity.Graph) {
	r := affinity.NewRecorder(ix, cfg)
	ref := newRefRecorder(ix, cfg)
	for _, ev := range events {
		r.OnPageEvent(ev)
		ref.OnPageEvent(ev)
	}
	return r.Graph(), ref.Graph()
}

// sameGraph fails unless the graphs are deeply equal with every edge
// weight and the pruned weight equal bit for bit (DeepEqual compares
// floats with ==, which equates 0 and -0).
func sameGraph(t *testing.T, name string, got, want *affinity.Graph) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		if len(got.Edges) == len(want.Edges) {
			for i := range got.Edges {
				if got.Edges[i] != want.Edges[i] {
					t.Errorf("%s: edge %d = %+v, reference %+v", name, i, got.Edges[i], want.Edges[i])
					break
				}
			}
		}
		t.Fatalf("%s: graph differs from the reference recorder's (edges %d vs %d, pruned %d vs %d)",
			name, len(got.Edges), len(want.Edges), got.PrunedEdges, want.PrunedEdges)
	}
	if math.Float64bits(got.PrunedWeight) != math.Float64bits(want.PrunedWeight) {
		t.Fatalf("%s: pruned weight %v, reference %v", name, got.PrunedWeight, want.PrunedWeight)
	}
	for i := range got.Edges {
		if math.Float64bits(got.Edges[i].Weight) != math.Float64bits(want.Edges[i].Weight) {
			t.Fatalf("%s: edge %d weight %v, reference %v", name, i, got.Edges[i].Weight, want.Edges[i].Weight)
		}
	}
}

// serveStream records the stream BenchmarkAffinityRecorder replays: one
// serve-api run from the first instruction to the first response, then
// four bursts of eight requests with a 30% reclaim before each.
func serveStream(t *testing.T) (*attrib.Index, []osim.PageEvent) {
	w, err := workloads.ByName("serve-api")
	if err != nil {
		t.Fatal(err)
	}
	img, err := image.Build(w.Build(), image.Options{Kind: image.KindRegular, Compiler: graal.DefaultConfig(), BuildSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	o := osim.NewOS(osim.SSD())
	proc, err := img.NewProcess(o, vm.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()
	var events eventLog
	proc.Mapping.Observe(&events)
	proc.Machine.StopOnRespond = true
	if err := proc.Run(w.Args...); err != nil {
		t.Fatal(err)
	}
	dispatch := img.Program.Class(w.Serve.DispatchClass).LookupMethod(w.Serve.DispatchMethod)
	for burst := 0; burst < 4; burst++ {
		o.ReclaimFraction(30)
		for i := 0; i < 8; i++ {
			if _, err := proc.Machine.RunMethod(dispatch, heap.IntVal(int64(i%w.Serve.Routes))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return img.AttributionIndex(), events
}

// recordingStream records the stream the c3 layout's recording run feeds
// its recorder: a regular build at the given seed, run on a fresh OS to
// the first response (services) or to the end. NewProcess makes its
// startup touches before a caller can attach an observer, so they are
// replayed on a mapping of another fresh OS, which sees the same clocks
// and page-cache states. The process's own recorder checks the splice:
// its graph must equal a replay of the logged stream.
func recordingStream(t *testing.T, name string, seed uint64) (*attrib.Index, []osim.PageEvent) {
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	img, err := image.Build(w.Build(), image.Options{Kind: image.KindRegular, Compiler: graal.DefaultConfig(), BuildSeed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var events eventLog
	f, err := img.File(osim.NewOS(osim.SSD()))
	if err != nil {
		t.Fatal(err)
	}
	startup := f.Map()
	startup.Observe(&events)
	startup.Touch(0)
	nativePages := img.NativeLen / osim.PageSize
	for i := int64(0); i < nativePages/2; i++ {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(i))
		page := int64(murmur.Sum64Seed(buf[:], uint64(len(img.Program.Name))) % uint64(nativePages))
		startup.Touch(img.NativeOff + page*osim.PageSize)
	}

	o := osim.NewOS(osim.SSD())
	o.TrackAffinity = true
	proc, err := img.NewProcess(o, vm.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()
	proc.Mapping.Observe(&events)
	proc.Machine.StopOnRespond = w.Service
	if err := proc.Run(w.Args...); err != nil {
		t.Fatal(err)
	}
	ix := img.AttributionIndex()
	live := proc.AffinityGraph()
	live.Workload = ""
	r := affinity.NewRecorder(ix, affinity.Config{})
	for _, ev := range events {
		r.OnPageEvent(ev)
	}
	if !reflect.DeepEqual(r.Graph(), live) {
		t.Fatalf("%s: the logged stream does not replay to the recording run's graph", name)
	}
	return ix, events
}

// tieIndex is a 13-page file: .text on pages 0-5, .svm_heap on 6-11 and
// an unsectioned last page. Pages 3 and 9 hold no symbol, and symbols
// leave gaps, so events also resolve through page representatives and
// pseudo-nodes.
func tieIndex() *attrib.Index {
	const ps = osim.PageSize
	sections := []osim.Section{
		{Name: ".text", Off: 0, Len: 6 * ps},
		{Name: ".svm_heap", Off: 6 * ps, Len: 6 * ps},
	}
	var syms []attrib.Symbol
	for p := int64(0); p < 12; p++ {
		if p == 3 || p == 9 {
			continue
		}
		kind, sec := attrib.KindCU, ".text"
		if p >= 6 {
			kind, sec = attrib.KindObject, ".svm_heap"
		}
		for k := int64(0); k < 3; k++ {
			syms = append(syms, attrib.Symbol{
				Name: fmt.Sprintf("s%d.%d", p, k), Type: fmt.Sprintf("T%d", k),
				Kind: kind, Section: sec, Off: p*ps + k*1024 + 100, Len: 900,
			})
		}
	}
	// One symbol spanning pages 4-5, so a page's representative can be a
	// symbol starting on an earlier page.
	syms = append(syms, attrib.Symbol{Name: "long", Kind: attrib.KindCU, Section: ".text", Off: 4*ps + 3500, Len: ps})
	return attrib.NewIndex(13*ps, sections, syms)
}

// tieStream is a deterministic pseudo-random stream over tieIndex: mostly
// accesses, with faults and budget, pressure and drop evictions.
func tieStream(n int, seed uint64) []osim.PageEvent {
	x := seed | 1
	next := func(k int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(k))
	}
	section := func(p int) int {
		switch {
		case p < 6:
			return 0
		case p < 12:
			return 1
		}
		return 2
	}
	var evs []osim.PageEvent
	for i := 0; i < n; i++ {
		p := next(13)
		ev := osim.PageEvent{Off: int64(p)*osim.PageSize + int64(next(osim.PageSize)), Page: p, Section: section(p), Clock: int64(i + 1)}
		switch r := next(20); {
		case r < 2:
			ev.Kind, ev.Major, ev.Refault = osim.PageFault, next(2) == 0, next(3) == 0
		case r < 4:
			ev.Kind, ev.Off, ev.Cause = osim.PageEvict, int64(p)*osim.PageSize, osim.EvictCause(next(3))
		default:
			ev.Kind = osim.PageAccess
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestRecorderMatchesReference replays recorded and synthetic page-event
// streams through the recorder and the reference recorder it replaced
// (reference_test.go) and requires identical graphs: the same survivors
// of every pruning, the same edge order, the same window log, and every
// weight equal bit for bit. Merge is checked against the reference merge.
func TestRecorderMatchesReference(t *testing.T) {
	var graphs []*affinity.Graph
	t.Run("serve-api", func(t *testing.T) {
		ix, events := serveStream(t)
		got, want := replay(ix, affinity.Config{}, events)
		sameGraph(t, "serve-api", got, want)
		graphs = append(graphs, got)
	})
	for _, name := range []string{"micronaut", "spring"} {
		t.Run(name, func(t *testing.T) {
			ix, events := recordingStream(t, name, 7)
			got, want := replay(ix, affinity.Config{}, events)
			sameGraph(t, name, got, want)
			if got.PrunedEdges == 0 {
				t.Fatalf("%s: the recording pruned no edges, so it does not exercise pruning", name)
			}
			t.Logf("%s: %d events, %d windows, %d edges kept, %d pruned", name, len(events), got.Windows, len(got.Edges), got.PrunedEdges)
			graphs = append(graphs, got)
		})
	}
	t.Run("ties", func(t *testing.T) {
		ix := tieIndex()
		for maxEdges := 1; maxEdges <= 8; maxEdges++ {
			for seed := uint64(1); seed <= 4; seed++ {
				cfg := affinity.Config{WindowEvents: 3 + int(seed), MaxEdges: maxEdges, Decay: 1, MaxWindows: 2, MaxWindowSymbols: 2 + int(seed)}
				got, want := replay(ix, cfg, tieStream(600, seed*0x9E3779B97F4A7C15))
				name := fmt.Sprintf("MaxEdges=%d/seed=%d", maxEdges, seed)
				sameGraph(t, name, got, want)
				if got.PrunedEdges == 0 || got.DroppedWindows == 0 || got.OverflowEvents == 0 {
					t.Fatalf("%s: stream misses a path (pruned %d, dropped windows %d, overflow %d)",
						name, got.PrunedEdges, got.DroppedWindows, got.OverflowEvents)
				}
				if maxEdges == 8 && seed <= 2 {
					graphs = append(graphs, got)
				}
			}
		}
	})
	t.Run("merge", func(t *testing.T) {
		if len(graphs) < 2 {
			t.Skip("no graphs to merge")
		}
		for i := 0; i+1 < len(graphs); i++ {
			sameGraph(t, fmt.Sprintf("merge %d+%d", i, i+1),
				affinity.Merge(graphs[i], graphs[i+1]), refMerge(graphs[i], graphs[i+1]))
		}
	})
}
