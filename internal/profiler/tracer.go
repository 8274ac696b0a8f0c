package profiler

import (
	"sort"

	"nimage/internal/graal"
	"nimage/internal/heap"
	"nimage/internal/ir"
	"nimage/internal/obs"
	"nimage/internal/vm"
)

// DumpMode selects how per-thread buffers reach the trace file (Sec. 6.1).
type DumpMode uint8

const (
	// DumpOnFull flushes a thread's buffer when it fills up and at thread
	// termination. Events still buffered when the process is killed
	// abnormally are LOST — which is why microservice workloads use
	// MemoryMapped.
	DumpOnFull DumpMode = iota
	// MemoryMapped maps the buffers onto the trace file; the kernel
	// persists every written word even across SIGKILL, at a higher
	// per-event cost.
	MemoryMapped
)

func (d DumpMode) String() string {
	if d == MemoryMapped {
		return "memory-mapped"
	}
	return "dump-on-full"
}

// Record tags inside trace words (low 3 bits; payload in the high bits).
const (
	tagCUEntry     = 1
	tagMethodEntry = 2
	tagPathHeader  = 3
)

// DefaultBufferWords is the per-thread trace buffer capacity in 64-bit
// words.
const DefaultBufferWords = 4096

// Profiling cost model in machine cycles, charged through AddCycles. The
// memory-mapped mode pays more per word (store + dirty-page bookkeeping)
// but never loses events; remaps are charged when a buffer fills.
const (
	costEventDumpOnFull = 30
	costEventMmap       = 110
	costPathEmit        = 6
	costPathEmitMmap    = 48
	costAccessWord      = 1
	costFlushPerWord    = 1
	costRemap           = 900
)

// ThreadTrace is the trace file of one thread: a flat word stream.
type ThreadTrace struct {
	TID   int
	Words []uint64
}

// Tracer turns vm events into per-thread traces for one instrumentation
// kind. It implements the runtime part of the instrumentation the compiler
// injected (whose code-size effect graal models); wire it into a machine
// with Hooks().
type Tracer struct {
	// Kind selects which events are traced.
	Kind graal.Instrumentation
	// Mode selects the buffer dump mode.
	Mode DumpMode
	// BufferWords is the per-thread buffer capacity (DefaultBufferWords
	// when 0).
	BufferWords int
	// MethodIdx maps compiled methods to stable indices (see MethodTable).
	MethodIdx map[*ir.Method]int
	// Numberings numbers the paths of compiled methods (required for
	// InstrHeap).
	Numberings *Numberings
	// ObjectHandle returns the identifier stored in an object's header by
	// the instrumented build: 0 for objects not in the heap snapshot.
	ObjectHandle func(o *heap.Object) uint64
	// AddCycles charges profiling overhead to the executing machine.
	AddCycles func(int64)
	// Obs, when non-nil, receives probe counts, buffer-flush statistics,
	// and dump-mode byte totals. Handles are resolved lazily because Obs
	// is typically assigned after NewTracer.
	Obs *obs.Registry

	threads map[int]*threadState
	order   []int // thread creation order

	obsReady   bool
	cEvents    *obs.Counter   // probes fired (CU entries, method entries, access words)
	cPaths     *obs.Counter   // completed Ball-Larus path records
	cFlushes   *obs.Counter   // dump-on-full buffer flushes
	cRemaps    *obs.Counter   // memory-mapped buffer remaps
	cWords     *obs.Counter   // words made durable in the trace file
	cLost      *obs.Counter   // words lost to SIGKILL in dump-on-full mode
	hFlush     *obs.Histogram // flush sizes in words
	bytesGauge *obs.Gauge     // total trace bytes written
}

// obsOn reports whether a registry is attached, resolving the metric
// handles on first use so the event path does no registry lookups.
func (t *Tracer) obsOn() bool {
	if t.Obs == nil {
		return false
	}
	if !t.obsReady {
		t.obsReady = true
		r := t.Obs
		t.cEvents = r.Counter("profiler.events." + t.Kind.String())
		t.cPaths = r.Counter("profiler.paths")
		t.cFlushes = r.Counter("profiler.flushes")
		t.cRemaps = r.Counter("profiler.remaps")
		t.cWords = r.Counter("profiler.words_flushed")
		t.cLost = r.Counter("profiler.words_lost")
		t.hFlush = r.Histogram("profiler.flush_words", []float64{64, 256, 1024, 4096, 16384})
		t.bytesGauge = r.Gauge("profiler.bytes_written")
	}
	return true
}

type pathState struct {
	m        *ir.Method
	nb       *Numbering
	start    int
	prev     int
	r        uint64
	accesses []uint64
}

type threadState struct {
	tid    int
	buf    []uint64
	flushd []uint64 // words already safely in the trace file
	stack  []*pathState
}

// NewTracer creates a tracer for the given instrumentation kind.
func NewTracer(kind graal.Instrumentation, mode DumpMode) *Tracer {
	return &Tracer{
		Kind:    kind,
		Mode:    mode,
		threads: make(map[int]*threadState),
	}
}

func (t *Tracer) charge(c int64) {
	if t.AddCycles != nil {
		t.AddCycles(c)
	}
}

func (t *Tracer) state(tid int) *threadState {
	ts := t.threads[tid]
	if ts == nil {
		ts = &threadState{tid: tid}
		t.threads[tid] = ts
		t.order = append(t.order, tid)
	}
	return ts
}

func (t *Tracer) bufCap() int {
	if t.BufferWords > 0 {
		return t.BufferWords
	}
	return DefaultBufferWords
}

// appendWords writes words to the thread's buffer, flushing or remapping
// when full.
func (t *Tracer) appendWords(ts *threadState, words ...uint64) {
	switch t.Mode {
	case MemoryMapped:
		// Words reach the memory-mapped file immediately; a full "buffer"
		// costs a remap to a higher file offset.
		for _, w := range words {
			if len(ts.buf) >= t.bufCap() {
				t.charge(costRemap)
				if t.obsOn() {
					t.cRemaps.Inc()
					t.cWords.Add(int64(len(ts.buf)))
				}
				ts.flushd = append(ts.flushd, ts.buf...)
				ts.buf = ts.buf[:0]
			}
			ts.buf = append(ts.buf, w)
		}
	default:
		// Dump-on-full: flush before a record that would not fit.
		if len(ts.buf)+len(words) > t.bufCap() {
			t.flush(ts)
		}
		if len(words) > t.bufCap() {
			// Oversized record: the real fixed-size buffer could never hold
			// it, so it must not grow the buffer past its stated capacity.
			// Emit it straight to the trace file as its own flush (the
			// runtime equivalent of a writev bypassing the buffer); the
			// record stays durable-on-flush like any other dumped words.
			n := int64(len(words))
			t.charge(n * costFlushPerWord)
			if t.obsOn() {
				t.cFlushes.Inc()
				t.cWords.Add(n)
				t.hFlush.Observe(float64(n))
			}
			ts.flushd = append(ts.flushd, words...)
			return
		}
		ts.buf = append(ts.buf, words...)
	}
}

func (t *Tracer) flush(ts *threadState) {
	if len(ts.buf) == 0 {
		return
	}
	n := int64(len(ts.buf))
	t.charge(n * costFlushPerWord)
	if t.obsOn() {
		t.cFlushes.Inc()
		t.cWords.Add(n)
		t.hFlush.Observe(float64(n))
	}
	ts.flushd = append(ts.flushd, ts.buf...)
	ts.buf = ts.buf[:0]
}

// Hooks returns the vm hooks implementing the instrumentation.
func (t *Tracer) Hooks() vm.Hooks {
	var h vm.Hooks
	switch t.Kind {
	case graal.InstrCU:
		h.OnEnterCU = func(tid int, root *ir.Method) {
			t.charge(costEvent(t.Mode))
			if t.obsOn() {
				t.cEvents.Inc()
			}
			ts := t.state(tid)
			t.appendWords(ts, uint64(t.MethodIdx[root])<<3|tagCUEntry)
		}
	case graal.InstrMethod:
		h.OnMethodEnter = func(tid int, m *ir.Method) {
			t.charge(costEvent(t.Mode))
			if t.obsOn() {
				t.cEvents.Inc()
			}
			ts := t.state(tid)
			t.appendWords(ts, uint64(t.MethodIdx[m])<<3|tagMethodEntry)
		}
	case graal.InstrHeap:
		h.OnMethodEnter = func(tid int, m *ir.Method) {
			ts := t.state(tid)
			ts.stack = append(ts.stack, &pathState{m: m, nb: t.Numberings.Of(m), prev: -1})
		}
		h.OnMethodExit = func(tid int, m *ir.Method) {
			ts := t.state(tid)
			if len(ts.stack) == 0 {
				return
			}
			ps := ts.stack[len(ts.stack)-1]
			ts.stack = ts.stack[:len(ts.stack)-1]
			t.emitPath(ts, ps)
			if len(ts.stack) == 0 {
				// Thread-termination handler: flush the buffer.
				t.flush(ts)
			}
		}
		h.OnBlock = func(tid int, m *ir.Method, blk int) {
			// The path-register update is 1-2 ALU instructions per edge,
			// hidden by the pipeline; its cost is folded into emitPath.
			ts := t.state(tid)
			if len(ts.stack) == 0 {
				return
			}
			ps := ts.stack[len(ts.stack)-1]
			if ps.m != m || ps.nb == nil {
				return
			}
			if ps.prev < 0 {
				ps.start = blk
				ps.prev = blk
				ps.r = 0
				return
			}
			if ps.nb.IsCut(ps.prev, blk) {
				t.emitPath(ts, ps)
				ps.start = blk
				ps.r = 0
			} else {
				ps.r += ps.nb.Increment(ps.prev, blk)
			}
			ps.prev = blk
		}
		h.OnAccess = func(tid int, o *heap.Object, instr bool) {
			if !instr {
				return
			}
			t.charge(costAccessWord)
			if t.obsOn() {
				t.cEvents.Inc()
			}
			ts := t.state(tid)
			if len(ts.stack) == 0 {
				return
			}
			ps := ts.stack[len(ts.stack)-1]
			var handle uint64
			if t.ObjectHandle != nil {
				handle = t.ObjectHandle(o)
			}
			ps.accesses = append(ps.accesses, handle)
		}
	}
	return h
}

func costEvent(m DumpMode) int64 {
	if m == MemoryMapped {
		return costEventMmap
	}
	return costEventDumpOnFull
}

// emitPath writes a completed path record: header, path ID, access count,
// access handles.
func (t *Tracer) emitPath(ts *threadState, ps *pathState) {
	if ps.nb == nil || ps.prev < 0 {
		return
	}
	// Emitting a completed path is cheap: the path register was maintained
	// by two-instruction edge increments, and the record is a buffered
	// store (Sec. 6.1 — path profiling keeps heap instrumentation cheaper
	// than per-method-entry tracing).
	emit := int64(costPathEmit)
	if t.Mode == MemoryMapped {
		emit = costPathEmitMmap
	}
	t.charge(emit + int64(len(ps.accesses))/2)
	if t.obsOn() {
		t.cPaths.Inc()
	}
	words := make([]uint64, 0, 3+len(ps.accesses))
	words = append(words,
		uint64(t.MethodIdx[ps.m])<<3|tagPathHeader,
		ps.nb.PathID(ps.start, ps.r),
		uint64(len(ps.accesses)),
	)
	words = append(words, ps.accesses...)
	t.appendWords(ts, words...)
	ps.accesses = ps.accesses[:0]
}

// Finish ends the profiling run and returns the trace files in thread
// creation order. killed indicates abnormal termination (SIGKILL): in
// DumpOnFull mode the unflushed buffer contents of every thread are lost,
// while MemoryMapped preserves them (Sec. 6.1).
func (t *Tracer) Finish(killed bool) []ThreadTrace {
	var out []ThreadTrace
	var durable, lost int64
	sort.Ints(t.order)
	for _, tid := range t.order {
		ts := t.threads[tid]
		if t.Mode == MemoryMapped || !killed {
			// Normal termination runs the thread-termination handlers;
			// memory-mapped buffers are always durable.
			t.flush(ts)
		} else {
			lost += int64(len(ts.buf))
		}
		durable += int64(len(ts.flushd))
		out = append(out, ThreadTrace{TID: tid, Words: ts.flushd})
	}
	if t.obsOn() {
		t.cLost.Add(lost)
		t.bytesGauge.Set(float64(durable * 8))
	}
	return out
}
