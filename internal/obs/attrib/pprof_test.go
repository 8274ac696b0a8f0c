package attrib

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"nimage/internal/obs"
	"nimage/internal/osim"
)

func profTable() *Table {
	return &Table{
		Schema: TableSchema, Workload: "Bounce", Layout: "cu",
		FileSize: 16384, Pages: 4, Runs: 1,
		Sections: []SectionTotal{
			{Section: ".text", Major: 2, Minor: 1, IONanos: 1500},
			{Section: ".svm_heap", Major: 1, IONanos: 500},
		},
		Symbols: []SymbolFaults{
			{
				Symbol: Symbol{Name: "A.run(0)", Type: "A", Kind: KindCU, Section: ".text", Off: 64, Len: 6000},
				Faults: 2, Major: 2, IONanos: 1500, FirstOrdinal: 1,
			},
			{
				Symbol: Symbol{Name: "O2#0", Type: "O2", Kind: KindObject, Section: ".svm_heap", Off: 8292, Len: 8000},
				Faults: 1, Major: 1, IONanos: 500, FirstOrdinal: 3, ResidentUnusedBytes: 4004,
			},
			{
				// Type == Name: the middle frame collapses away.
				Symbol: Symbol{Name: "B", Type: "B", Kind: KindCU, Section: ".text", Off: 6064, Len: 2128},
				Faults: 1, Minor: 1, FirstOrdinal: 2,
			},
			{
				// Fault-free symbols carry no samples even with waste.
				Symbol:              Symbol{Name: "cold", Kind: KindObject, Section: ".svm_heap", Off: 16000, Len: 100},
				ResidentUnusedBytes: 100,
			},
		},
	}
}

// Golden-shape test: encode, decode with the independent reader, and check
// the sample types, stacks, values, and labels survive the round trip.
func TestPprofRoundTrip(t *testing.T) {
	tab := profTable()
	var buf bytes.Buffer
	if err := WritePprof(&buf, tab); err != nil {
		t.Fatal(err)
	}
	if b := buf.Bytes(); len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatal("profile not gzipped")
	}
	p, err := ReadPprof(&buf)
	if err != nil {
		t.Fatal(err)
	}

	wantTypes := []ProfValueType{
		{Type: "faults", Unit: "count"},
		{Type: "major_faults", Unit: "count"},
		{Type: "io", Unit: "nanoseconds"},
	}
	if !reflect.DeepEqual(p.SampleTypes, wantTypes) {
		t.Errorf("sample types = %+v, want %+v", p.SampleTypes, wantTypes)
	}
	if len(p.Samples) != 3 {
		t.Fatalf("samples = %d, want 3 (fault-free symbol must not sample)", len(p.Samples))
	}

	byLeaf := map[string]ProfSample{}
	for _, s := range p.Samples {
		if len(s.Stack) == 0 {
			t.Fatalf("empty stack in %+v", s)
		}
		byLeaf[s.Stack[0]] = s
	}
	a := byLeaf["A.run(0)"]
	if !reflect.DeepEqual(a.Stack, []string{"A.run(0)", "A", ".text"}) {
		t.Errorf("A stack = %v", a.Stack)
	}
	if !reflect.DeepEqual(a.Values, []int64{2, 2, 1500}) {
		t.Errorf("A values = %v", a.Values)
	}
	if a.Labels["kind"] != KindCU || a.NumLabels["first_fault_ordinal"] != 1 {
		t.Errorf("A labels = %+v / %+v", a.Labels, a.NumLabels)
	}
	b := byLeaf["B"]
	if !reflect.DeepEqual(b.Stack, []string{"B", ".text"}) {
		t.Errorf("B stack must collapse same-name type frame: %v", b.Stack)
	}
	o2 := byLeaf["O2#0"]
	if !reflect.DeepEqual(o2.Stack, []string{"O2#0", "O2", ".svm_heap"}) {
		t.Errorf("O2 stack = %v", o2.Stack)
	}
	if o2.NumLabels["resident_unused"] != 4004 {
		t.Errorf("O2 labels = %+v", o2.NumLabels)
	}

	// Grand totals across samples match the table's symbol counts.
	var faults, major, io int64
	for _, s := range p.Samples {
		faults += s.Values[0]
		major += s.Values[1]
		io += s.Values[2]
	}
	if faults != 4 || major != 3 || io != 2000 {
		t.Errorf("totals = %d/%d/%d, want 4/3/2000", faults, major, io)
	}
	// The layout comment is interned after most of the profile is built;
	// it must still resolve against the emitted string table.
	if !reflect.DeepEqual(p.Comments, []string{"layout: cu"}) {
		t.Errorf("comments = %v, want [layout: cu]", p.Comments)
	}
}

func TestPprofDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WritePprof(&a, profTable()); err != nil {
		t.Fatal(err)
	}
	if err := WritePprof(&b, profTable()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("pprof export not byte-deterministic")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r := obs.NewRegistry()
	sp := r.StartSpan("build")
	sp.End()
	tl := r.Timeline(FaultTimeline, "offset", "page", "major", "io_nanos", "section")
	tl.Record(".text", 0, 0, 1, 1000, 0)
	tl.Record(".text", 4096, 1, 0, 0, 0)
	tl.Record(".svm_heap", 8192, 2, 1, 500, 1)
	snap := r.Snapshot()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, snap, profTable()); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var spans, instants, threads int
	tracks := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		switch ev["ph"] {
		case "X":
			spans++
			if ev["name"] != "build" {
				t.Errorf("span name = %v", ev["name"])
			}
		case "i":
			instants++
		case "M":
			threads++
			if args, ok := ev["args"].(map[string]any); ok {
				if n, ok := args["name"].(string); ok {
					tracks[n] = true
				}
			}
		}
	}
	if spans != 1 || instants != 3 {
		t.Errorf("spans = %d, instants = %d, want 1/3", spans, instants)
	}
	if !tracks["faults .text"] || !tracks["faults .svm_heap"] {
		t.Errorf("per-section tracks missing: %v", tracks)
	}

	// Nil snapshot and table still produce a loadable (metadata-only) file.
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
}

// Guard: the recorder really does plug into osim as a PageObserver.
var _ osim.PageObserver = (*Recorder)(nil)
