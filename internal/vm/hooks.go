package vm

import (
	"nimage/internal/heap"
	"nimage/internal/ir"
)

// ComposeHooks combines two hook sets: event hooks of both fire (a first),
// and the InlineOf oracle comes from a unless only b provides one. The
// loaded image composes its page-touching hooks with the tracing profiler's
// event hooks this way.
func ComposeHooks(a, b Hooks) Hooks {
	var h Hooks
	h.InlineOf = a.InlineOf
	if h.InlineOf == nil {
		h.InlineOf = b.InlineOf
	}
	h.OnEnterCU = compose2M(a.OnEnterCU, b.OnEnterCU)
	h.OnMethodEnter = compose2M(a.OnMethodEnter, b.OnMethodEnter)
	h.OnMethodExit = compose2M(a.OnMethodExit, b.OnMethodExit)
	h.OnBlock = compose2B(a.OnBlock, b.OnBlock)
	h.OnAccess = compose2A(a.OnAccess, b.OnAccess)
	h.OnSnapshotAccess = compose2A(a.OnSnapshotAccess, b.OnSnapshotAccess)
	h.OnNew = compose2N(a.OnNew, b.OnNew)
	h.OnRespond = compose2V(a.OnRespond, b.OnRespond)
	h.OnPrint = compose2P(a.OnPrint, b.OnPrint)
	return h
}

func compose2P(a, b func(int, heap.Value)) func(int, heap.Value) {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(tid int, v heap.Value) { a(tid, v); b(tid, v) }
}

func compose2M(a, b func(int, *ir.Method)) func(int, *ir.Method) {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(tid int, m *ir.Method) { a(tid, m); b(tid, m) }
}

func compose2B(a, b func(int, *ir.Method, int)) func(int, *ir.Method, int) {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(tid int, m *ir.Method, blk int) { a(tid, m, blk); b(tid, m, blk) }
}

func compose2A(a, b func(int, *heap.Object, bool)) func(int, *heap.Object, bool) {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(tid int, o *heap.Object, instr bool) { a(tid, o, instr); b(tid, o, instr) }
}

func compose2N(a, b func(int, *ir.Class)) func(int, *ir.Class) {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(tid int, c *ir.Class) { a(tid, c); b(tid, c) }
}

func compose2V(a, b func()) func() {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func() { a(); b() }
}
