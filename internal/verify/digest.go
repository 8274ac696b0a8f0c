// Package verify checks that the profile-guided reordering pipeline is
// semantics-preserving: the optimized image must behave identically to the
// baseline (differential execution), be a pure permutation of an
// unreordered build (metamorphic layout invariants), and the codecs feeding
// the pipeline must reject hostile input (fuzzed separately).
//
// The checks are calibrated to the simulator's deliberate non-determinism
// (Sec. 2 of the paper): build seeds perturb class-initializer order and
// salt clinit-computed values, so heap *contents* legitimately differ
// across seeds, and regular vs PGO compilations fold different constants,
// so interned-string sets legitimately differ across build kinds. What must
// never differ is the program's observable behavior:
//
//   - printed output and response events — across every build;
//   - executed instruction count — across every build;
//   - the stream of journaled mutations of build-time state (first
//     overwrites of snapshot objects and statics) — across every build;
//   - intern additions and final heap state — across builds sharing a seed
//     and compilation (the optimized image vs its identity-layout twin).
package verify

import (
	"fmt"
	"strconv"

	"nimage/internal/heap"
	"nimage/internal/ir"
	"nimage/internal/murmur"
	"nimage/internal/vm"
)

// digestSeed starts every chained digest at a fixed, arbitrary value.
const digestSeed = 0x76657269667921 // "verify!"

// chain folds s into a running digest.
func chain(h uint64, s string) uint64 {
	return murmur.Sum64Seed([]byte(s), h)
}

// digestStrings digests a rendered event stream.
func digestStrings(events []string) uint64 {
	h := uint64(digestSeed)
	for _, e := range events {
		h = chain(h, e)
	}
	return h
}

// renderValue renders a value shallowly and stably across builds: no
// pointer identities, no layout positions. References render as their type
// (strings as their contents), so the rendering of a journaled overwrite is
// identical across builds even though the referee is a different Go object.
func renderValue(v heap.Value) string {
	switch v.Kind {
	case heap.VInt:
		return "i:" + strconv.FormatInt(v.Bits, 10)
	case heap.VFloat:
		return "f:" + strconv.FormatInt(v.Bits, 10)
	default:
		o := v.Ref
		switch {
		case o == nil:
			return "null"
		case o.IsString():
			return "s:" + o.Str
		case o.IsArray():
			return o.TypeName() + "[" + strconv.Itoa(o.Len()) + "]"
		default:
			return o.TypeName()
		}
	}
}

// renderJournalEvent renders one journaled mutation stably across builds:
// the mutated location is named by type and field/index, never by object
// identity or layout position.
func renderJournalEvent(e vm.JournalEvent) string {
	switch e.Kind {
	case "field":
		return "field " + e.Field.Signature() + " of " + e.Object.TypeName() + " prev " + renderValue(e.Prev)
	case "elem":
		return "elem " + e.Object.TypeName() + "[" + strconv.Itoa(e.Index) + "] prev " + renderValue(e.Prev)
	case "static":
		return "static " + e.Field.Signature() + " prev " + renderValue(e.Prev)
	default:
		return "intern " + e.Literal
	}
}

// maxHeapNodes bounds the deep-digest traversal; the digest stays
// well-defined (the walk order is deterministic, so truncation hits the
// same node in every build of the same program).
const maxHeapNodes = 1 << 20

// heapDigester walks the reachable heap from the program's static fields
// and digests final values deeply. Cycles are cut by numbering objects in
// visit order — a deterministic, identity-free naming.
type heapDigester struct {
	h     uint64
	seen  map[*heap.Object]int
	nodes int
}

// heapStateDigest digests the final heap state of a finished run: every
// static field of every class, traversed deeply in program declaration
// order. Statics reach all live build-time state; the digest is independent
// of snapshot membership (which differs across build kinds through
// constant folding) and of layout order.
func heapStateDigest(p *ir.Program, statics *heap.Statics) uint64 {
	d := &heapDigester{h: digestSeed, seen: make(map[*heap.Object]int)}
	for _, c := range p.Classes {
		for _, f := range c.Statics {
			d.h = chain(d.h, "static "+f.Signature())
			d.walk(statics.Get(f))
		}
	}
	return d.h
}

func (d *heapDigester) walk(v heap.Value) {
	if v.Kind != heap.VRef {
		d.h = chain(d.h, renderValue(v))
		return
	}
	o := v.Ref
	if o == nil {
		d.h = chain(d.h, "null")
		return
	}
	if ord, ok := d.seen[o]; ok {
		d.h = chain(d.h, "back:"+strconv.Itoa(ord))
		return
	}
	d.seen[o] = len(d.seen)
	d.nodes++
	if d.nodes > maxHeapNodes {
		d.h = chain(d.h, "truncated")
		return
	}
	d.h = chain(d.h, o.TypeName())
	switch {
	case o.IsString():
		d.h = chain(d.h, "s:"+o.Str)
	case o.Packed():
		// Packed byte arrays have deterministic pseudo-contents fully
		// determined by their length.
		d.h = chain(d.h, "packed:"+strconv.Itoa(o.Len()))
	default:
		if o.IsArray() {
			d.h = chain(d.h, "len:"+strconv.Itoa(o.Len()))
		}
		for i := range o.Slots {
			d.walk(o.Slots[i])
		}
	}
}

// fmtCount is a tiny helper for check details.
func fmtCount(format string, args ...any) string { return fmt.Sprintf(format, args...) }
