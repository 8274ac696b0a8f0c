// Package vm interprets IR programs deterministically.
//
// The interpreter serves two roles in the toolchain, mirroring the paper:
// at image build time it executes the class initializers of reachable
// classes to populate the initial heap (Sec. 2), and at "runtime" it
// executes the binary while the hooks report the events the instrumented
// image would trace — compilation-unit entries, method entries, executed
// blocks, and heap-object accesses (Sec. 6.1) — and the events the loaded
// image turns into page touches.
//
// Multi-threaded workloads (the microservice benchmarks) run under a
// deterministic round-robin scheduler, so measurements are reproducible.
package vm

import (
	"fmt"

	"nimage/internal/heap"
	"nimage/internal/ir"
	"nimage/internal/obs"
)

// Hooks receive execution events. Any hook may be nil.
type Hooks struct {
	// InlineOf reports whether a call to callee from code compiled into the
	// CU rooted at ctx executes inlined (inside ctx's CU) rather than
	// entering callee's own CU. When nil, no call is treated as inlined.
	InlineOf func(ctx, callee *ir.Method) bool
	// OnEnterCU fires when control enters the compilation unit rooted at
	// root via a non-inlined call (including thread entry points). tid is
	// the executing thread.
	OnEnterCU func(tid int, root *ir.Method)
	// OnMethodEnter fires on every method invocation, inlined or not.
	OnMethodEnter func(tid int, m *ir.Method)
	// OnMethodExit fires when a method returns.
	OnMethodExit func(tid int, m *ir.Method)
	// OnBlock fires when a basic block of m begins executing.
	OnBlock func(tid int, m *ir.Method, block int)
	// OnAccess fires when object o is touched. instr is true for explicit
	// field/array access instructions — the events the heap-ordering
	// instrumentation records (Sec. 6.1) — and false for implicit touches
	// (intrinsics reading string contents), which fault pages but carry no
	// statically countable probe.
	OnAccess func(tid int, o *heap.Object, instr bool)
	// OnSnapshotAccess fires like OnAccess, and before it, but only for
	// objects a heap snapshot holds (heap.Object.InSnapshot): the loaded
	// image touches their .svm_heap pages with it, while a runtime
	// allocation costs the access path no call.
	OnSnapshotAccess func(tid int, o *heap.Object, instr bool)
	// OnNew fires when an instance of c is allocated. The loaded image uses
	// it to touch the class's metadata (hub) object in the heap snapshot,
	// the way compiled allocation code reads the hub word.
	OnNew func(tid int, c *ir.Class)
	// OnRespond fires when the workload executes the respond intrinsic
	// (first external response of a microservice, Sec. 7.1).
	OnRespond func()
	// OnPrint fires when the workload executes the print intrinsic, with
	// the printed value. The equivalence verifier records these events as
	// the program's observable output.
	OnPrint func(tid int, v heap.Value)
}

// Simulated cost model (cycle units; see CycleNanos).
const (
	costInstr     = 1
	costCall      = 7
	costAlloc     = 12
	costAccess    = 2
	costIntrinsic = 5
)

// CycleNanos converts cycle units to nanoseconds of simulated CPU time
// (roughly a 2.5 GHz in-order machine).
const CycleNanos = 0.4

// Machine executes one program. Zero-value fields get defaults in New.
//
// Frames and threads are recycled per Machine, so a warm machine's call
// path does not allocate: a returning frame goes back to a free list, and
// the end of a scheduling round hands back its threads together with any
// frames a stop left on their stacks. A reused frame keeps its register
// slice when it is large enough. Registers are reset to null when a frame
// is taken again, not when it returns, so a free frame may hold object
// references until it is reused or the machine dies.
type Machine struct {
	Prog    *ir.Program
	Statics *heap.Statics
	Interns *heap.Interns
	Hooks   Hooks

	// BuildSalt seeds the buildsalt intrinsic; every image build uses a
	// different salt, modelling build-dependent values captured by class
	// initializers (one of the heap-divergence sources of Sec. 2).
	BuildSalt uint64
	// IntArgs are the program arguments read by the arg intrinsic.
	IntArgs []int64
	// MaxSteps aborts runaway executions.
	MaxSteps int64
	// Quantum is the scheduler time slice in instructions.
	Quantum int
	// StopOnRespond stops all threads at the first respond intrinsic (the
	// harness then "SIGKILLs" the workload, Sec. 7.1).
	StopOnRespond bool
	// AutoClinit triggers class initializers on first static access,
	// allocation, or static call (JVM semantics). The image builder
	// enables it during build-time initialization, so the seeded shuffle
	// of the explicit initialization order can never run a dependent
	// initializer before its dependencies.
	AutoClinit bool
	// Obs, when non-nil, receives the executed instruction mix and the
	// sim-time breakdown when a scheduling round finishes. The interpreter
	// loop pays a single local-array increment per instruction when a
	// registry is attached and nothing at all otherwise.
	Obs *obs.Registry

	// Steps counts executed instructions; Cycles accumulates the cost
	// model. CyclesAtRespond snapshots Cycles at the first response.
	Steps           int64
	Cycles          int64
	Responded       bool
	CyclesAtRespond int64

	stringClass *ir.Class
	// clinitDone[c.ID] records that class c's initialization has
	// started; Resolve numbers classes densely from 1.
	clinitDone []bool
	saltCtr    uint64
	stop       bool
	threads    []*thread
	nextTID    int
	journal    *journal
	lastResult heap.Value

	// freeFrames and freeThreads are the machine's recycled frames and
	// threads (see newFrame and newThread).
	freeFrames  []*frame
	freeThreads []*thread

	// mix accumulates per-opcode execution counts between finish() flushes,
	// indexed by mixOp (the extra slot counts terminators, which are not
	// published); mixOn caches Obs != nil for the duration of one
	// schedule() run.
	mix   [ir.NumOps + 1]int64
	mixOn bool
}

// New creates a machine over a resolved program with fresh statics and
// intern table.
func New(prog *ir.Program) *Machine {
	m := &Machine{
		Prog:    prog,
		Statics: heap.NewStatics(),
	}
	m.stringClass = prog.Class(ir.StringClass)
	if m.stringClass != nil {
		m.Interns = heap.NewInterns(m.stringClass)
	}
	m.MaxSteps = 200_000_000
	m.Quantum = 400
	m.clinitDone = make([]bool, len(prog.Classes)+1)
	return m
}

// ensureInit pushes the pending class initializers of c (superclasses
// first) onto thread t and reports whether any were pushed. The caller
// must re-execute the triggering instruction afterwards.
func (m *Machine) ensureInit(t *thread, c *ir.Class) bool {
	var pending []*ir.Method
	for k := c; k != nil; k = k.Super {
		if m.clinitDone[k.ID] {
			break
		}
		m.clinitDone[k.ID] = true
		if cl := k.Clinit(); cl != nil {
			pending = append(pending, cl)
		}
	}
	if len(pending) == 0 {
		return false
	}
	// Push subclass initializers first so superclass initializers end up
	// on top of the stack and run first.
	for _, cl := range pending {
		t.frames = append(t.frames, m.newFrame(cl, cl, int(ir.NoReg), 0))
		if m.Hooks.OnMethodEnter != nil {
			m.Hooks.OnMethodEnter(t.id, cl)
		}
		if m.Hooks.OnBlock != nil {
			m.Hooks.OnBlock(t.id, cl, 0)
		}
	}
	return true
}

// RunClassInit runs the class initializer of c (and transitively of its
// superclasses) unless it already ran; used by the image builder for the
// explicit build-time initialization sequence.
func (m *Machine) RunClassInit(c *ir.Class) error {
	t := m.newThread(-1)
	if !m.ensureInit(t, c) {
		m.freeThreads = append(m.freeThreads, t)
		return nil
	}
	m.threads = append(m.threads, t)
	return m.schedule()
}

// SimTimeNanos returns the simulated CPU time in nanoseconds.
func (m *Machine) SimTimeNanos() float64 { return float64(m.Cycles) * CycleNanos }

// RespondTimeNanos returns the simulated CPU time at the first response.
func (m *Machine) RespondTimeNanos() float64 { return float64(m.CyclesAtRespond) * CycleNanos }

type frame struct {
	m      *ir.Method
	code   *code      // m's decoded body
	ctx    *ir.Method // root of the CU whose compiled code is executing
	regs   []heap.Value
	pc     int // offset of the next op in code.ops
	retReg int // destination register in the caller (NoReg if discarded)
}

type thread struct {
	id     int
	frames []*frame
	done   bool
}

// newFrame returns a frame executing meth from its entry block, with every
// register from index args on null: the caller fills the argument
// registers below. It reuses a free frame, and that frame's register slice
// when the slice is large enough.
func (m *Machine) newFrame(meth, ctx *ir.Method, retReg, args int) *frame {
	var f *frame
	if n := len(m.freeFrames); n > 0 {
		f = m.freeFrames[n-1]
		m.freeFrames = m.freeFrames[:n-1]
	} else {
		f = new(frame)
	}
	regs := f.regs
	if cap(regs) < meth.NumRegs {
		regs = make([]heap.Value, meth.NumRegs)
	}
	regs = regs[:meth.NumRegs]
	for i := min(args, len(regs)); i < len(regs); i++ {
		regs[i] = heap.Null()
	}
	*f = frame{m: meth, code: codeOf(meth), ctx: ctx, regs: regs, retReg: retReg}
	return f
}

// newThread returns an empty, live thread with the given id, reusing a
// free one when there is one.
func (m *Machine) newThread(id int) *thread {
	var t *thread
	if n := len(m.freeThreads); n > 0 {
		t = m.freeThreads[n-1]
		m.freeThreads = m.freeThreads[:n-1]
	} else {
		t = new(thread)
	}
	*t = thread{id: id, frames: t.frames[:0]}
	return t
}

// trap is an execution error with location context.
type trap struct {
	msg string
	m   *ir.Method
	blk int
	ip  int
}

func (t *trap) Error() string {
	return fmt.Sprintf("vm: %s at %s block %d ip %d", t.msg, t.m.Signature(), t.blk, t.ip)
}

// trapf reports an error at f's pc: the op after the trapping instruction,
// so ip counts the instructions of the block executed so far, or the
// terminator when a terminator traps.
func (m *Machine) trapf(f *frame, format string, args ...any) error {
	blk, ip := f.code.where(f.pc, len(f.m.Blocks))
	return &trap{msg: fmt.Sprintf(format, args...), m: f.m, blk: blk, ip: ip}
}

// RunProgram executes the program entry under the deterministic scheduler
// until every thread finishes, a respond event stops the run (if
// StopOnRespond), or the step budget is exhausted.
func (m *Machine) RunProgram(args ...int64) error {
	entry := m.Prog.Entry()
	if entry == nil {
		return fmt.Errorf("vm: program %s has no entry point", m.Prog.Name)
	}
	m.IntArgs = args
	m.spawnThread(entry, nil)
	return m.schedule()
}

// RunMethod executes a single static method to completion on a fresh main
// thread (used for build-time class initializers) and returns its result.
func (m *Machine) RunMethod(target *ir.Method, args ...heap.Value) (heap.Value, error) {
	if !target.Static {
		return heap.Null(), fmt.Errorf("vm: RunMethod target %s is not static", target.Signature())
	}
	m.spawnThread(target, args)
	if err := m.schedule(); err != nil {
		return heap.Null(), err
	}
	return m.lastResult, nil
}

func (m *Machine) spawnThread(entry *ir.Method, args []heap.Value) {
	f := m.newFrame(entry, entry, int(ir.NoReg), 0)
	copy(f.regs, args)
	t := m.newThread(m.nextTID)
	t.frames = append(t.frames, f)
	m.nextTID++
	m.threads = append(m.threads, t)
	if m.Hooks.OnEnterCU != nil {
		m.Hooks.OnEnterCU(t.id, entry)
	}
	if m.Hooks.OnMethodEnter != nil {
		m.Hooks.OnMethodEnter(t.id, entry)
	}
	if m.Hooks.OnBlock != nil {
		m.Hooks.OnBlock(t.id, entry, 0)
	}
}

// schedule runs all threads round-robin until completion or stop.
func (m *Machine) schedule() error {
	m.mixOn = m.Obs.Enabled()
	for {
		live := 0
		progressed := false
		for _, t := range m.threads {
			if t.done {
				continue
			}
			live++
			if err := m.runQuantum(t); err != nil {
				return err
			}
			progressed = true
			if m.stop {
				m.finish()
				return nil
			}
		}
		if live == 0 {
			m.finish()
			return nil
		}
		if !progressed {
			return fmt.Errorf("vm: scheduler made no progress with %d live threads", live)
		}
		if m.Steps > m.MaxSteps {
			return fmt.Errorf("vm: step budget %d exhausted (livelock?)", m.MaxSteps)
		}
	}
}

func (m *Machine) finish() {
	// Recycle the round's threads and the frames a stop left on their
	// stacks; the machine can be reused for a further RunMethod (build-time
	// clinit sequences and serve requests do this).
	for _, t := range m.threads {
		m.freeFrames = append(m.freeFrames, t.frames...)
		m.freeThreads = append(m.freeThreads, t)
	}
	m.threads = m.threads[:0]
	m.stop = false
	if m.mixOn {
		m.flushObs()
	}
}

// flushObs publishes the instruction mix gathered since the last flush and
// the cumulative sim-time breakdown. Mix counters are deltas (Add) so that
// repeated schedule() rounds on a reused machine accumulate; the totals are
// gauges reflecting the machine's lifetime state.
func (m *Machine) flushObs() {
	for op := 0; op < ir.NumOps; op++ {
		if m.mix[op] != 0 {
			m.Obs.Counter("vm.instr." + ir.Op(op).String()).Add(m.mix[op])
			m.mix[op] = 0
		}
	}
	m.Obs.Gauge("vm.steps").Set(float64(m.Steps))
	m.Obs.Gauge("vm.cycles").Set(float64(m.Cycles))
	m.Obs.Gauge("vm.cpu_nanos").Set(m.SimTimeNanos())
	m.Obs.Gauge("vm.threads").Set(float64(m.nextTID))
}
