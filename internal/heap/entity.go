package heap

import "nimage/internal/ir"

// Entity is the wrapper around a value that the identity algorithms of the
// paper take as input (Algorithms 1–3). It stores and inspects metadata of
// the wrapped value: its type, fields, array elements, and — for snapshot
// objects — root status, inclusion reason, and first-path parents.
type Entity struct {
	val Value
	// staticType is the declared type of the slot the value was read from;
	// used when the value is null or primitive.
	staticType ir.TypeRef
	// snap holds the snapshot metadata of the wrapped object; nil for an
	// entity made without a snapshot, which reads as unrooted and
	// parentless.
	snap *Snapshot
}

// ObjEntity wraps an object reference without snapshot metadata.
func ObjEntity(o *Object) Entity {
	if o == nil {
		return Entity{val: Null(), staticType: ir.Ref("java.lang.Object")}
	}
	// The static type only types null and primitive values; a reference's
	// type is its object's (Type).
	return Entity{val: RefVal(o)}
}

// Entity wraps o, one of the snapshot's objects or nil, together with the
// snapshot's metadata, so that the root status, inclusion reason and
// first-path parents of it and of the entities derived from it can be read.
func (s *Snapshot) Entity(o *Object) Entity {
	e := ObjEntity(o)
	e.snap = s
	return e
}

// ValEntity wraps an arbitrary value read from a slot of the given static
// type.
func ValEntity(v Value, static ir.TypeRef) Entity { return Entity{val: v, staticType: static} }

// IsNull reports whether the wrapped value is the null reference.
func (e Entity) IsNull() bool { return e.val.IsNull() }

// IsPrimitive reports whether the wrapped value is a primitive.
func (e Entity) IsPrimitive() bool { return e.val.Kind != VRef }

// IsString reports whether the wrapped value is a string object.
func (e Entity) IsString() bool {
	return e.val.Kind == VRef && e.val.Ref != nil && e.val.Ref.IsString()
}

// IsObjectInstance reports whether the wrapped value is a non-array object.
func (e Entity) IsObjectInstance() bool {
	return e.val.Kind == VRef && e.val.Ref != nil && !e.val.Ref.IsArray()
}

// IsArray reports whether the wrapped value is an array.
func (e Entity) IsArray() bool { return e.val.Kind == VRef && e.val.Ref != nil && e.val.Ref.IsArray() }

// Object returns the wrapped object, or nil.
func (e Entity) Object() *Object { return e.val.Ref }

// Value returns the wrapped value.
func (e Entity) Value() Value { return e.val }

// Type returns the dynamic type of the wrapped value (the static slot type
// for null/primitive values).
func (e Entity) Type() ir.TypeRef {
	if e.val.Kind == VRef && e.val.Ref != nil {
		return e.val.Ref.Type()
	}
	if e.val.Kind == VInt && e.staticType.Kind != ir.KInt {
		return e.staticType
	}
	if e.val.Kind == VFloat {
		return ir.Float()
	}
	return e.staticType
}

// NumFields returns the instance-field count of an object instance.
func (e Entity) NumFields() int {
	if !e.IsObjectInstance() {
		return 0
	}
	return len(e.val.Ref.Slots)
}

// FieldDecl returns the declaration of the k-th field (source order).
func (e Entity) FieldDecl(k int) *ir.Field { return e.val.Ref.Class.AllFields[k] }

// GetFieldWrapper wraps the value of the k-th field.
func (e Entity) GetFieldWrapper(k int) Entity {
	f := e.val.Ref.Class.AllFields[k]
	return Entity{val: e.val.Ref.Slots[k], staticType: f.Type, snap: e.snap}
}

// Length returns the array length.
func (e Entity) Length() int { return e.val.Ref.Len() }

// ElementType returns the array element type.
func (e Entity) ElementType() ir.TypeRef { return e.val.Ref.ElemType() }

// GetElementWrapper wraps the k-th array element.
func (e Entity) GetElementWrapper(k int) Entity {
	return Entity{val: e.val.Ref.GetElem(k), staticType: e.val.Ref.ElemType(), snap: e.snap}
}

// snapObject returns the wrapped object when its metadata can be read:
// the entity carries a snapshot and a snapshot holds the object.
func (e Entity) snapObject() *Object {
	if o := e.val.Ref; e.snap != nil && e.val.Kind == VRef && o != nil && o.InSnapshot() {
		return o
	}
	return nil
}

// IsRoot reports whether the wrapped object is a snapshot root.
func (e Entity) IsRoot() bool {
	o := e.snapObject()
	return o != nil && e.snap.IsRoot(o)
}

// InclusionReason returns the heap-inclusion reason of a root.
func (e Entity) InclusionReason() string {
	if o := e.snapObject(); o != nil {
		return e.snap.Reason(o)
	}
	return ""
}

// FirstParent returns the first-path parent of the wrapped snapshot object
// (Algorithm 3 uses getParents().first()); it wraps null for roots and for
// entities without snapshot metadata.
func (e Entity) FirstParent() Entity {
	var p *Object
	if o := e.snapObject(); o != nil {
		p = e.snap.Parent(o)
	}
	return e.snap.Entity(p)
}

// ParentSlot returns the field slot (of an instance parent) or element
// index (of an array parent) through which FirstParent references the
// wrapped object; 0 when there is no parent.
func (e Entity) ParentSlot() int {
	if o := e.snapObject(); o != nil && !e.snap.IsRoot(o) {
		return int(e.snap.at(o).link)
	}
	return 0
}
