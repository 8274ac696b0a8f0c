package heap

import (
	"fmt"
	"math"
)

// RootRef is a heap-snapshot root: an object together with the reason
// Native Image deemed it reachable (Sec. 5.3).
type RootRef struct {
	Obj    *Object
	Reason string
}

// Snapshot is the image heap: the set of objects written to the .svm_heap
// section, in default layout order (object-graph encounter order, with roots
// visited in the order supplied — which the image builder derives from the
// .text CU order, Sec. 2).
//
// The snapshot owns its objects' metadata: a side table indexed by SeqID
// holds each object's first-path parent, inclusion reason, slot numbers
// and .svm_heap extent. Read it through the accessors below.
type Snapshot struct {
	// Objects in encounter order; SeqID equals the index.
	Objects []*Object
	// Roots in visit order.
	Roots []RootRef
	// TotalSize is the summed snapshot size of all objects in bytes.
	TotalSize int64

	// meta is the side table, at each object's SeqID.
	meta []objMeta
	// slots is the number of field and element slots of all objects.
	slots int
}

// objMeta is the snapshot's record of one object.
type objMeta struct {
	// parent is the SeqID+1 of the first-path parent: the object whose
	// field or element reference caused this object's inclusion; 0 for a
	// root.
	parent int32
	// link is, for a root, its index in Roots; otherwise the field slot or
	// element index of the parent that references the object.
	link int32
	// slotBase numbers the object's fields and elements densely: field or
	// element i is snapshot slot slotBase+i.
	slotBase int32
	// size is the object's byte size in .svm_heap.
	size int32
	// offset locates the object inside .svm_heap after Layout.
	offset int64
}

// at returns the record of o, which must be one of the snapshot's objects.
func (s *Snapshot) at(o *Object) *objMeta { return &s.meta[o.seq-1] }

// Slot returns the snapshot-wide number of field slot or element index i
// of o, which must be one of the snapshot's objects. Numbers are dense in
// [0, NumSlots()), so per-slot sets can be bitsets.
func (s *Snapshot) Slot(o *Object, i int) int { return int(s.at(o).slotBase) + i }

// NumSlots returns the number of field and element slots of the
// snapshot's objects.
func (s *Snapshot) NumSlots() int { return s.slots }

// Offset returns o's offset inside .svm_heap, assigned by Layout.
func (s *Snapshot) Offset(o *Object) int64 { return s.at(o).offset }

// Size returns the byte size o occupies in .svm_heap.
func (s *Snapshot) Size(o *Object) int64 { return int64(s.at(o).size) }

// IsRoot reports whether o is a snapshot root.
func (s *Snapshot) IsRoot(o *Object) bool { return s.at(o).parent == 0 }

// Reason returns the heap-inclusion reason of a root, or "" for an object
// included through a parent.
func (s *Snapshot) Reason(o *Object) string {
	if m := s.at(o); m.parent == 0 {
		return s.Roots[m.link].Reason
	}
	return ""
}

// Parent returns o's first-path parent: the object whose field or element
// reference caused o's inclusion; nil for roots.
func (s *Snapshot) Parent(o *Object) *Object {
	if m := s.at(o); m.parent != 0 {
		return s.Objects[m.parent-1]
	}
	return nil
}

// BuildSnapshot traverses the object graph from roots in a well-defined
// (depth-first, field order, element order) order, marking every reached
// object, recording first-path parents and inclusion reasons, assigning
// encounter-order SeqIDs, and computing object sizes.
//
// Duplicate roots are allowed: the first occurrence wins, matching Native
// Image where an object already in the heap keeps its original inclusion
// reason. An object another snapshot already holds is not taken again.
//
// The snapshot lives as long as its image, so its tables are allocated
// once at their exact size: a first traversal marks and counts the
// objects and roots, and a second one, which visits the marked objects
// in the same order, fills the tables.
func BuildSnapshot(roots []RootRef) *Snapshot {
	// Pass 1: mark every object the snapshot takes with seqMarked.
	var objects, nroots int
	var mark func(o *Object)
	mark = func(o *Object) {
		if objects == math.MaxInt32 {
			panic(fmt.Sprintf("heap: snapshot of more than %d objects exceeds the metadata range", objects))
		}
		o.seq = seqMarked
		objects++
		for _, v := range o.Slots {
			if v.Kind == VRef && v.Ref != nil && v.Ref.seq == 0 {
				mark(v.Ref)
			}
		}
	}
	for _, r := range roots {
		if r.Obj != nil && r.Obj.seq == 0 {
			nroots++
			mark(r.Obj)
		}
	}

	// Pass 2: number the marked objects in the same order.
	s := &Snapshot{
		Objects: make([]*Object, 0, objects),
		Roots:   make([]RootRef, 0, nroots),
		meta:    make([]objMeta, 0, objects),
	}
	add := func(o *Object, parent uint32, link int) {
		size := o.SnapshotSize()
		if size > math.MaxInt32 {
			panic(fmt.Sprintf("heap: snapshot object %d of %d bytes exceeds the metadata range", len(s.Objects), size))
		}
		s.Objects = append(s.Objects, o)
		o.seq = uint32(len(s.Objects))
		s.meta = append(s.meta, objMeta{parent: int32(parent), link: int32(link), size: int32(size)})
	}
	var visit func(o *Object)
	visit = func(o *Object) {
		// Children in deterministic order: fields by slot, elements by
		// index. Recursion is depth-first to mirror Native Image's
		// traversal of the first path to each object.
		for i, v := range o.Slots {
			if v.Kind == VRef && v.Ref != nil && v.Ref.seq == seqMarked {
				add(v.Ref, o.seq, i)
				visit(v.Ref)
			}
		}
	}
	for _, r := range roots {
		if r.Obj == nil || r.Obj.seq != seqMarked {
			continue
		}
		add(r.Obj, 0, len(s.Roots))
		s.Roots = append(s.Roots, r)
		visit(r.Obj)
	}
	for k, o := range s.Objects {
		m := &s.meta[k]
		s.TotalSize += int64(m.size)
		m.slotBase = int32(s.slots)
		s.slots += len(o.Slots)
	}
	return s
}

// seqMarked is the seq of an object BuildSnapshot's first pass has
// marked for the snapshot; no SeqID reaches it, because snapshots hold
// at most math.MaxInt32 objects.
const seqMarked = math.MaxUint32

// Layout assigns contiguous offsets (8-byte aligned) to objects in the
// given order, which must be a permutation of the snapshot's objects.
// It returns the total laid-out size.
func (s *Snapshot) Layout(order []*Object) int64 {
	var off int64
	for _, o := range order {
		m := s.at(o)
		m.offset = off
		off += (int64(m.size) + 7) / 8 * 8
	}
	return off
}
