package image

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"nimage/internal/graal"
	"nimage/internal/heap"
	"nimage/internal/osim"
	"nimage/internal/profiler"
	"nimage/internal/vm"
	"nimage/internal/workloads"
)

// accessEvents summarizes what a heap-instrumented profiling run saw: the
// tracer's access events (explicit and implicit), the handles of the
// explicit ones in order, and the trace words it wrote.
type accessEvents struct {
	events, explicit, snapshot int
	handles, words             string
	numWords                   int
}

// recordAccessEvents runs a heap-instrumented build of w the way
// runProfile does, with a second OnAccess hook beside the tracer's that
// sees the same events.
func recordAccessEvents(t *testing.T, w workloads.Workload) accessEvents {
	t.Helper()
	mode := profiler.ModeFor(w.Service)
	img, err := Build(w.Build(), Options{
		Kind: KindInstrumented, Compiler: graal.DefaultConfig(), Instr: graal.InstrHeap,
		Mode: mode, BuildSeed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := profiler.NewTracer(graal.InstrHeap, mode)
	tr.MethodIdx = img.Table.Index
	tr.Numberings = img.Numberings
	tr.ObjectHandle = img.ObjectHandle

	var ev accessEvents
	handles := sha256.New()
	put := func(h hash.Hash, v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	count := vm.Hooks{OnAccess: func(_ int, o *heap.Object, instr bool) {
		ev.events++
		if !instr {
			return
		}
		ev.explicit++
		h := img.ObjectHandle(o)
		if h != 0 {
			ev.snapshot++
		}
		put(handles, h)
	}}
	proc, err := img.NewProcess(osim.NewOS(osim.SSD()), vm.ComposeHooks(tr.Hooks(), count))
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()
	tr.AddCycles = func(c int64) { proc.Machine.Cycles += c }
	proc.Machine.StopOnRespond = w.Service
	if err := proc.Run(w.Args...); err != nil {
		t.Fatal(err)
	}
	words := sha256.New()
	for _, tt := range tr.Finish(w.Service) {
		put(words, uint64(tt.TID))
		put(words, uint64(len(tt.Words)))
		for _, v := range tt.Words {
			put(words, v)
		}
		ev.numWords += len(tt.Words)
	}
	ev.handles = hex.EncodeToString(handles.Sum(nil))[:16]
	ev.words = hex.EncodeToString(words.Sum(nil))[:16]
	return ev
}

// TestProfilerAccessEventsPinned pins the access events a heap-profiling
// run records — their count, the handles of the explicit ones and the
// trace words — on Bounce and DeltaBlue. The loaded image skips runtime
// objects before its page-touch hook; the tracer charges simulated cost
// for every access, so it must keep seeing all of them, snapshot or not.
func TestProfilerAccessEventsPinned(t *testing.T) {
	want := map[string]accessEvents{
		"Bounce": {events: 19745, explicit: 19744, snapshot: 852,
			handles: "304e8c36cf440198", words: "ddf710a7d2a000c8", numWords: 37624},
		"DeltaBlue": {events: 89180, explicit: 89179, snapshot: 852,
			handles: "f7eb1ec23bfa4ec5", words: "032980dcaf0d273c", numWords: 223501},
	}
	for name, w := range want {
		wl, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		got := recordAccessEvents(t, wl)
		if got.snapshot == 0 || got.snapshot == got.explicit {
			t.Errorf("%s: %d of %d explicit accesses hit snapshot objects; the run must touch both kinds",
				name, got.snapshot, got.explicit)
		}
		if got != w {
			t.Errorf("%s: access events\n got %+v\nwant %+v", name, got, w)
		}
	}
}
