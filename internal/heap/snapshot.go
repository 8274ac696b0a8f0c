package heap

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
type Snapshot struct {
	// Objects in encounter order; SeqID equals the index.
	Objects []*Object
	// Roots in visit order.
	Roots []RootRef
	// TotalSize is the summed snapshot size of all objects in bytes.
	TotalSize int64

	// slotBase numbers the objects' fields and elements densely: field or
	// element i of the object with SeqID k is slot slotBase[k]+i. slots
	// is the total.
	slotBase []int32
	slots    int
}

// Slot returns the snapshot-wide number of field slot or element index i
// of o, which must be one of the snapshot's objects. Numbers are dense in
// [0, NumSlots()), so per-slot sets can be bitsets.
func (s *Snapshot) Slot(o *Object, i int) int { return int(s.slotBase[o.SeqID]) + i }

// NumSlots returns the number of field and element slots of the
// snapshot's objects.
func (s *Snapshot) NumSlots() int { return s.slots }

// BuildSnapshot traverses the object graph from roots in a well-defined
// (depth-first, field order, element order) order, marking every reached
// object, recording first-path parents and inclusion reasons, assigning
// encounter-order SeqIDs, and computing object sizes.
//
// Duplicate roots are allowed: the first occurrence wins, matching Native
// Image where an object already in the heap keeps its original inclusion
// reason.
func BuildSnapshot(roots []RootRef) *Snapshot {
	s := &Snapshot{}
	var visit func(o *Object)
	visit = func(o *Object) {
		// Children in deterministic order: fields by slot, elements by
		// index. Recursion is depth-first to mirror Native Image's
		// traversal of the first path to each object.
		if o.IsArray {
			for i := range o.Elems {
				v := o.Elems[i]
				if v.Kind == VRef && v.Ref != nil && !v.Ref.InSnapshot {
					c := v.Ref
					c.InSnapshot = true
					c.Parent = o
					c.ParentField = nil
					c.ParentIndex = i
					c.SeqID = len(s.Objects)
					c.Size = c.SnapshotSize()
					s.Objects = append(s.Objects, c)
					visit(c)
				}
			}
			return
		}
		if o.Class == nil {
			return
		}
		for slot, v := range o.Fields {
			if v.Kind == VRef && v.Ref != nil && !v.Ref.InSnapshot {
				c := v.Ref
				c.InSnapshot = true
				c.Parent = o
				c.ParentField = o.Class.AllFields[slot]
				c.ParentIndex = -1
				c.SeqID = len(s.Objects)
				c.Size = c.SnapshotSize()
				s.Objects = append(s.Objects, c)
				visit(c)
			}
		}
	}
	for _, r := range roots {
		if r.Obj == nil {
			continue
		}
		if r.Obj.InSnapshot {
			continue
		}
		r.Obj.InSnapshot = true
		r.Obj.Root = true
		r.Obj.Reason = r.Reason
		r.Obj.Parent = nil
		r.Obj.SeqID = len(s.Objects)
		r.Obj.Size = r.Obj.SnapshotSize()
		s.Objects = append(s.Objects, r.Obj)
		s.Roots = append(s.Roots, r)
		visit(r.Obj)
	}
	s.slotBase = make([]int32, len(s.Objects))
	for k, o := range s.Objects {
		s.TotalSize += o.Size
		s.slotBase[k] = int32(s.slots)
		s.slots += len(o.Fields) + len(o.Elems)
	}
	return s
}

// Layout assigns contiguous offsets (8-byte aligned) to objects in the
// given order, which must be a permutation of the snapshot's objects.
// It returns the total laid-out size.
func Layout(order []*Object) int64 {
	var off int64
	for _, o := range order {
		o.Offset = off
		off += (o.Size + 7) / 8 * 8
	}
	return off
}
