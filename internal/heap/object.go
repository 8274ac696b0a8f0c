package heap

import (
	"fmt"
	"math"

	"nimage/internal/ir"
)

// Heap-inclusion reasons of snapshot roots (Sec. 5.3). Reasons that name a
// static field or a method use the field/method signature directly.
const (
	ReasonInternedString = "InternedString"
	ReasonDataSection    = "DataSection"
	ReasonResource       = "Resource"
)

// Object is a heap object or array. Strings are objects of the built-in
// string class with the Go string as payload.
//
// An object carries no snapshot metadata of its own: the image builder's
// per-object facts (first-path parent, inclusion reason, .svm_heap offset
// and size) live in the Snapshot that holds it, at the object's SeqID. The
// object keeps only that number, so a runtime allocation pays nothing for
// them. The object fits Go's 64-byte size class: instances and arrays
// share one slot slice, and an array's element size is derived.
type Object struct {
	// Class is the class of an instance object; nil for arrays.
	Class *ir.Class
	// elem is the element type of an array; nil for instances.
	elem *ir.TypeRef
	// Slots holds an instance's field values indexed by ir.Field.Slot, or
	// an array's elements. A packed byte array has none.
	Slots []Value
	// Str is the payload of string objects.
	Str string
	// seq is SeqID+1 in the snapshot that holds the object; 0 for an
	// object no snapshot holds (every runtime allocation).
	seq uint32
	// n is an array's length: len(Slots), or the byte length of a packed
	// byte array, whose elements are not materialized. It is 0 for
	// instances.
	n uint32
}

// InSnapshot reports whether a heap snapshot holds the object.
func (o *Object) InSnapshot() bool { return o.seq != 0 }

// SeqID returns the object's encounter order in the snapshot that holds
// it (0-based), or -1 when no snapshot holds it.
func (o *Object) SeqID() int { return int(o.seq) - 1 }

const objectHeader = 16 // mark word + class pointer
const slotSize = 8

// intType is the element type of every packed byte array.
var intType = ir.Int()

// NewObject allocates an instance of class with zeroed fields (integers 0,
// floats 0.0, references null). Integer fields need no store: IntVal(0) is
// Go's zero Value.
func NewObject(class *ir.Class) *Object {
	o := &Object{Class: class, Slots: make([]Value, len(class.AllFields))}
	for i, f := range class.AllFields {
		if z := zeroOf(f.Type.Kind); z != (Value{}) {
			o.Slots[i] = z
		}
	}
	return o
}

// NewArray allocates an array of n elements of type *elem, zeroed. The
// array keeps the pointer, so *elem must not change. Integer arrays need
// no fill: IntVal(0) is Go's zero Value.
func NewArray(elem *ir.TypeRef, n int) *Object {
	o := &Object{elem: elem, Slots: make([]Value, n), n: arrayLen(n)}
	if z := zeroOf(elem.Kind); z != (Value{}) {
		for i := range o.Slots {
			o.Slots[i] = z
		}
	}
	return o
}

// zeroOf returns the zero value of a slot of kind k.
func zeroOf(k ir.TypeKind) Value {
	switch k {
	case ir.KFloat:
		return FloatVal(0)
	case ir.KRef, ir.KArray:
		return Null()
	default:
		return IntVal(0)
	}
}

// NewByteArray allocates a packed byte array of n bytes. Its elements are
// not materialized; it models the metadata blobs of real image heaps,
// which dominate heap-snapshot size (Sec. 7.2).
func NewByteArray(n int) *Object {
	return &Object{elem: &intType, n: arrayLen(n)}
}

// arrayLen checks that n can be an array length.
func arrayLen(n int) uint32 {
	if n < 0 || uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("heap: array length %d out of range", n))
	}
	return uint32(n)
}

// NewString allocates a string object.
func NewString(class *ir.Class, s string) *Object {
	if class == nil || !class.IsString() {
		panic("heap: NewString requires the java.lang.String class")
	}
	o := NewObject(class)
	o.Str = s
	return o
}

// IsArray reports whether the object is an array.
func (o *Object) IsArray() bool { return o.Class == nil }

// Len returns the array length; 0 for an instance.
func (o *Object) Len() int { return int(o.n) }

// Packed reports whether the object is a packed byte array whose contents
// are a deterministic function of its length.
func (o *Object) Packed() bool { return int(o.n) > len(o.Slots) }

// ElemBytes returns the storage size of one array element: 1 for packed
// byte arrays, 8 otherwise.
func (o *Object) ElemBytes() int {
	if o.Packed() {
		return 1
	}
	return slotSize
}

// ElemType returns the element type of an array.
func (o *Object) ElemType() ir.TypeRef { return *o.elem }

// IsString reports whether the object is a string.
func (o *Object) IsString() bool { return o.Class != nil && o.Class.IsString() }

// Type returns the object's type.
func (o *Object) Type() ir.TypeRef {
	if o.IsArray() {
		return ir.TypeRef{Kind: ir.KArray, Elem: o.elem}
	}
	return ir.Ref(o.Class.Name)
}

// TypeName returns the fully qualified type name.
func (o *Object) TypeName() string { return o.Type().FullyQualifiedName() }

// SnapshotSize returns the byte size the object occupies in .svm_heap.
func (o *Object) SnapshotSize() int64 {
	if o.IsArray() {
		return objectHeader + int64(o.Len()*o.ElemBytes())
	}
	if o.IsString() {
		// Header + length/hash slots + character data, 8-byte aligned.
		n := int64(len(o.Str))
		return objectHeader + 8 + (n+7)/8*8
	}
	return objectHeader + int64(len(o.Slots)*slotSize)
}

// GetField reads the field value by resolved field.
func (o *Object) GetField(f *ir.Field) Value {
	if o.Class == nil || f.Slot >= len(o.Slots) {
		o.badField("get", f)
	}
	return o.Slots[f.Slot]
}

// SetField writes the field value by resolved field.
func (o *Object) SetField(f *ir.Field, v Value) {
	if o.Class == nil || f.Slot >= len(o.Slots) {
		o.badField("set", f)
	}
	o.Slots[f.Slot] = v
}

// badField panics on an access to a field o does not have. It is kept out
// of the accessors so that they stay small enough to inline.
func (o *Object) badField(verb string, f *ir.Field) {
	panic(fmt.Sprintf("heap: %s field %s on %s", verb, f.Descriptor(), o.TypeName()))
}

// GetElem reads array element i.
func (o *Object) GetElem(i int) Value {
	if o.Class != nil || uint(i) >= uint(len(o.Slots)) {
		return o.slowElem(i)
	}
	return o.Slots[i]
}

// slowElem reads element i of a packed byte array, whose elements are
// deterministic pseudo-content, and panics on an index out of range. It
// is kept out of GetElem so that GetElem stays small enough to inline.
func (o *Object) slowElem(i int) Value {
	if i < 0 || i >= o.Len() {
		panic(fmt.Sprintf("heap: index %d out of bounds [0,%d)", i, o.Len()))
	}
	return IntVal(int64(byte(i*131 + 17)))
}

// SetElem writes array element i.
func (o *Object) SetElem(i int, v Value) {
	if o.Class != nil || uint(i) >= uint(len(o.Slots)) {
		o.badStore(i)
	}
	o.Slots[i] = v
}

// badStore panics on a store SetElem cannot make.
//
//go:noinline
func (o *Object) badStore(i int) {
	if o.Packed() {
		panic("heap: write to packed byte array")
	}
	panic(fmt.Sprintf("heap: index %d out of bounds [0,%d)", i, o.Len()))
}

// Statics is the build-time storage of static fields: one value slice per
// class, indexed [Class.ID][Field.Slot]. A class's slice is allocated on its
// first write, so the storage holds only the classes whose statics were
// written.
type Statics struct {
	byClass [][]Value
}

// NewStatics creates empty static storage.
func NewStatics() *Statics { return &Statics{} }

// Get reads a static field (zero value if never written). f must be a
// static field its class declares.
func (s *Statics) Get(f *ir.Field) Value {
	if id := f.Class.ID; id < len(s.byClass) {
		if vals := s.byClass[id]; vals != nil {
			return vals[f.Slot]
		}
	}
	return zeroOf(f.Type.Kind)
}

// Set writes a static field. f must be a static field its class declares.
func (s *Statics) Set(f *ir.Field, v Value) {
	c := f.Class
	if c.ID >= len(s.byClass) {
		s.byClass = append(s.byClass, make([][]Value, c.ID+1-len(s.byClass))...)
	}
	vals := s.byClass[c.ID]
	if vals == nil {
		vals = make([]Value, len(c.Statics))
		for i, sf := range c.Statics {
			vals[i] = zeroOf(sf.Type.Kind)
		}
		s.byClass[c.ID] = vals
	}
	vals[f.Slot] = v
}

// Interns is the interned-string table.
type Interns struct {
	class *ir.Class
	byVal map[string]*Object
	order []*Object
}

// NewInterns creates an empty intern table backed by the program's string
// class.
func NewInterns(stringClass *ir.Class) *Interns {
	return &Interns{class: stringClass, byVal: make(map[string]*Object)}
}

// Intern returns the canonical string object for s, creating it on first
// use. Interned strings become heap roots with reason "InternedString".
func (t *Interns) Intern(s string) *Object {
	if o, ok := t.byVal[s]; ok {
		return o
	}
	o := NewString(t.class, s)
	t.byVal[s] = o
	t.order = append(t.order, o)
	return o
}

// All returns the interned strings in interning order.
func (t *Interns) All() []*Object { return t.order }

// Remove drops the given literals from the table (used to roll back
// interning performed during a benchmark run).
func (t *Interns) Remove(literals []string) {
	if len(literals) == 0 {
		return
	}
	drop := make(map[string]bool, len(literals))
	for _, s := range literals {
		drop[s] = true
	}
	kept := t.order[:0]
	for _, o := range t.order {
		if drop[o.Str] {
			delete(t.byVal, o.Str)
			continue
		}
		kept = append(kept, o)
	}
	t.order = kept
}
