package vm_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nimage/internal/heap"
	"nimage/internal/ir"
	"nimage/internal/obs"
	"nimage/internal/vm"
	"nimage/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/interp_golden.json")

// goldenRun is what the interpreter golden table pins for one workload.
type goldenRun struct {
	Steps           int64            `json:"steps"`
	Cycles          int64            `json:"cycles"`
	CyclesAtRespond int64            `json:"cycles_at_respond"`
	Mix             map[string]int64 `json:"mix"`
	// Events digests (event kind, Steps, Cycles, payload) of every hook
	// event in order.
	Events string `json:"events"`
}

// eventDigest feeds hook events into a SHA-256 stream.
type eventDigest struct {
	m   *vm.Machine
	h   hash.Hash
	buf [8]byte
}

func (d *eventDigest) event(kind byte, payload ...int64) {
	d.h.Write([]byte{kind})
	for _, v := range append([]int64{d.m.Steps, d.m.Cycles}, payload...) {
		binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
		d.h.Write(d.buf[:])
	}
}

// goldenHooks digests every hook event, and charges extra cycles from
// inside some hooks the way the tracing profiler's AddCycles does, so the
// table also pins that the interpreter reads Cycles back after a hook.
func goldenHooks(d *eventDigest) vm.Hooks {
	ids := map[*ir.Method]int64{}
	id := func(m *ir.Method) int64 {
		if v, ok := ids[m]; ok {
			return v
		}
		ids[m] = int64(len(ids))
		return ids[m]
	}
	return vm.Hooks{
		InlineOf: func(ctx, callee *ir.Method) bool { return callee.NumRegs <= 4 && ctx != callee },
		OnEnterCU: func(tid int, root *ir.Method) {
			d.event('C', int64(tid), id(root))
			d.m.Cycles += 3
		},
		OnMethodEnter: func(tid int, m *ir.Method) { d.event('E', int64(tid), id(m)) },
		OnMethodExit:  func(tid int, m *ir.Method) { d.event('X', int64(tid), id(m)) },
		OnBlock: func(tid int, m *ir.Method, block int) {
			d.event('B', int64(tid), id(m), int64(block))
			if block%3 == 1 {
				d.m.Cycles++
			}
		},
		OnAccess: func(tid int, o *heap.Object, instr bool) {
			n := int64(o.Len())
			if instr {
				n = -n - 1
			}
			d.event('A', int64(tid), n)
		},
		OnNew:     func(tid int, c *ir.Class) { d.event('N', int64(tid), int64(c.ID)) },
		OnRespond: func() { d.event('R') },
		OnPrint: func(tid int, v heap.Value) {
			d.event('P', int64(tid), int64(v.Kind), v.Bits)
		},
	}
}

// runGolden executes w bare: every class initializer in classpath order
// with AutoClinit on (the build-time path), then the program to
// completion or first response, then — for serve workloads — one request
// per route through the dispatch entry.
func runGolden(t *testing.T, w workloads.Workload) goldenRun {
	p := w.Build()
	reg := obs.NewRegistry()
	m := vm.New(p)
	m.Obs = reg
	d := &eventDigest{m: m, h: sha256.New()}
	m.Hooks = goldenHooks(d)
	m.AutoClinit = true
	for _, c := range p.Classes {
		if err := m.RunClassInit(c); err != nil {
			t.Fatalf("%s: clinit of %s: %v", w.Name, c.Name, err)
		}
	}
	m.AutoClinit = false
	m.StopOnRespond = w.Service
	if err := m.RunProgram(w.Args...); err != nil {
		t.Fatalf("%s: run: %v", w.Name, err)
	}
	if w.Serve != nil {
		dispatch := p.Class(w.Serve.DispatchClass).DeclaredMethod(w.Serve.DispatchMethod)
		for r := 0; r < w.Serve.Routes; r++ {
			if _, err := m.RunMethod(dispatch, heap.IntVal(int64(r))); err != nil {
				t.Fatalf("%s: route %d: %v", w.Name, r, err)
			}
		}
	}
	g := goldenRun{
		Steps: m.Steps, Cycles: m.Cycles, CyclesAtRespond: m.CyclesAtRespond,
		Mix:    map[string]int64{},
		Events: hex.EncodeToString(d.h.Sum(nil)),
	}
	for _, c := range reg.Snapshot().Counters {
		if strings.HasPrefix(c.Name, "vm.instr.") {
			g.Mix[strings.TrimPrefix(c.Name, "vm.instr.")] = c.Value
		}
	}
	return g
}

// TestInterpreterGolden pins the interpreter's cost model and event stream
// on every AWFY, microservice and serve workload: Steps, Cycles,
// CyclesAtRespond, the executed instruction mix, and a digest of the
// (Steps, Cycles) every hook event observes. A change to how the
// interpreter executes must reproduce the table exactly; `go test
// ./internal/vm -run TestInterpreterGolden -update` rewrites it only for a
// deliberate change of the cost model.
func TestInterpreterGolden(t *testing.T) {
	path := filepath.Join("testdata", "interp_golden.json")
	got := map[string]goldenRun{}
	for _, w := range append(workloads.All(), workloads.Serve()...) {
		got[w.Name] = runGolden(t, w)
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden table has %d workloads, ran %d", len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: not in the golden table", name)
		} else if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: got %+v\nwant %+v", name, g, w)
		}
	}
}
