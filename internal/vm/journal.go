package vm

import (
	"nimage/internal/heap"
	"nimage/internal/ir"
)

// journal records mutations of build-time state (snapshot objects, statics,
// intern table) so that a run can be rolled back, leaving the image pristine
// for the next benchmark iteration. The evaluation runs each built image
// several times (Sec. 7.1); rolling back is the simulator's equivalent of
// starting a fresh process over the same binary file.
type journal struct {
	fieldWrites  []fieldWrite
	elemWrites   []elemWrite
	staticWrites []staticWrite
	internAdds   []string
	// snap numbers the snapshot objects' fields and elements; seenSlot
	// marks the slots already journaled, by that number, and seenStatic
	// the static fields, by [Class.ID][Field.Slot]. Both grow on the first
	// write they record.
	snap       *heap.Snapshot
	seenSlot   bitset
	seenStatic []bitset
}

// bitset is a set of small non-negative integers.
type bitset []uint64

// add inserts i, growing s to hold at least n bits when it is too short,
// and reports whether i was absent.
func (s *bitset) add(i, n int) bool {
	w, bit := i>>6, uint64(1)<<(i&63)
	if w >= len(*s) {
		*s = append(*s, make(bitset, max((n+63)>>6, w+1)-len(*s))...)
	}
	if (*s)[w]&bit != 0 {
		return false
	}
	(*s)[w] |= bit
	return true
}

type fieldWrite struct {
	o    *heap.Object
	f    *ir.Field
	prev heap.Value
}
type elemWrite struct {
	o    *heap.Object
	idx  int
	prev heap.Value
}
type staticWrite struct {
	f    *ir.Field
	prev heap.Value
}

// EnableJournal starts recording mutations of pre-existing heap state: the
// statics, the intern table, and the objects of snap, which must hold every
// snapshot object (heap.Object.InSnapshot) that the run writes. Writes to objects allocated
// after this call are not journaled (they are garbage after the run
// anyway).
func (m *Machine) EnableJournal(snap *heap.Snapshot) {
	m.journal = &journal{snap: snap}
}

// Rollback undoes every journaled mutation in reverse order and stops
// journaling.
func (m *Machine) Rollback() {
	j := m.journal
	if j == nil {
		return
	}
	m.journal = nil
	for i := len(j.fieldWrites) - 1; i >= 0; i-- {
		w := j.fieldWrites[i]
		w.o.SetField(w.f, w.prev)
	}
	for i := len(j.elemWrites) - 1; i >= 0; i-- {
		w := j.elemWrites[i]
		w.o.SetElem(w.idx, w.prev)
	}
	for i := len(j.staticWrites) - 1; i >= 0; i-- {
		w := j.staticWrites[i]
		m.Statics.Set(w.f, w.prev)
	}
	if m.Interns != nil {
		m.Interns.Remove(j.internAdds)
	}
}

// JournalEvent is one journaled mutation of build-time state, in recording
// (execution) order. The equivalence verifier digests these streams: a run
// over a semantically equivalent image must journal the same mutations in
// the same order.
type JournalEvent struct {
	// Kind is "field", "elem", "static", or "intern".
	Kind string
	// Object is the mutated snapshot object ("field"/"elem" events).
	Object *heap.Object
	// Field is the written field ("field"/"static" events).
	Field *ir.Field
	// Index is the written element index ("elem" events).
	Index int
	// Prev is the overwritten value ("field"/"elem"/"static" events).
	Prev heap.Value
	// Literal is the interned string ("intern" events).
	Literal string
}

// JournalEvents returns the journaled mutations recorded so far: the field
// writes, element writes, static writes, and intern additions, each stream
// in execution order (writes record only the first overwrite of each
// location). It returns nil when journaling is off or after Rollback.
func (m *Machine) JournalEvents() []JournalEvent {
	j := m.journal
	if j == nil {
		return nil
	}
	out := make([]JournalEvent, 0,
		len(j.fieldWrites)+len(j.elemWrites)+len(j.staticWrites)+len(j.internAdds))
	for _, w := range j.fieldWrites {
		out = append(out, JournalEvent{Kind: "field", Object: w.o, Field: w.f, Prev: w.prev})
	}
	for _, w := range j.elemWrites {
		out = append(out, JournalEvent{Kind: "elem", Object: w.o, Index: w.idx, Prev: w.prev})
	}
	for _, w := range j.staticWrites {
		out = append(out, JournalEvent{Kind: "static", Field: w.f, Prev: w.prev})
	}
	for _, s := range j.internAdds {
		out = append(out, JournalEvent{Kind: "intern", Literal: s})
	}
	return out
}

// recordFieldWrite journals the first overwrite of a snapshot object field.
func (m *Machine) recordFieldWrite(o *heap.Object, f *ir.Field) {
	j := m.journal
	if j == nil || !o.InSnapshot() {
		return
	}
	if !j.seenSlot.add(j.snap.Slot(o, f.Slot), j.snap.NumSlots()) {
		return
	}
	j.fieldWrites = append(j.fieldWrites, fieldWrite{o: o, f: f, prev: o.GetField(f)})
}

// recordElemWrite journals the first overwrite of a snapshot array element.
func (m *Machine) recordElemWrite(o *heap.Object, idx int) {
	j := m.journal
	if j == nil || !o.InSnapshot() {
		return
	}
	if !j.seenSlot.add(j.snap.Slot(o, idx), j.snap.NumSlots()) {
		return
	}
	j.elemWrites = append(j.elemWrites, elemWrite{o: o, idx: idx, prev: o.GetElem(idx)})
}

// recordStaticWrite journals the first overwrite of a static field.
func (m *Machine) recordStaticWrite(f *ir.Field) {
	j := m.journal
	if j == nil {
		return
	}
	id := f.Class.ID
	if id >= len(j.seenStatic) {
		j.seenStatic = append(j.seenStatic, make([]bitset, id+1-len(j.seenStatic))...)
	}
	if !j.seenStatic[id].add(f.Slot, len(f.Class.Statics)) {
		return
	}
	j.staticWrites = append(j.staticWrites, staticWrite{f: f, prev: m.Statics.Get(f)})
}
