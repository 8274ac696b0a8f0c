package heap

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"nimage/internal/ir"
)

// testClasses builds a tiny resolved program with a few classes for heap
// tests: String, Node{next Node, val long}, Pair{a String, b Node}.
func testClasses(t *testing.T) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("heaptest")
	b.Class(ir.StringClass)
	b.Class("Node").Field("next", ir.Ref("Node")).Field("val", ir.Int())
	b.Class("Pair").Field("a", ir.String()).Field("b", ir.Ref("Node"))
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

// typeOf returns a pointer to a copy of t, for NewArray.
func typeOf(t ir.TypeRef) *ir.TypeRef { return &t }

// TestObjectSize pins heap.Object at Go's 64-byte size class: snapshot
// metadata belongs in the Snapshot's side table, and what an array's
// class, element size and packing would say is derived.
func TestObjectSize(t *testing.T) {
	if got := unsafe.Sizeof(Object{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(Object{}) = %d, want 64", got)
	}
}

// TestDerivedFacts checks the facts each constructor's object derives
// from its fields rather than stores.
func TestDerivedFacts(t *testing.T) {
	p := testClasses(t)
	for _, c := range []struct {
		name      string
		o         *Object
		isArray   bool
		elemBytes int
		len       int
		packed    bool
		typ       string
		size      int64
	}{
		{"NewObject", NewObject(p.Class("Node")), false, 8, 0, false, "Node", 16 + 2*8},
		{"NewString", NewString(p.Class(ir.StringClass), "hello"), false, 8, 0, false, ir.StringClass, 16 + 8 + 8},
		{"NewArray", NewArray(typeOf(ir.Ref("Node")), 3), true, 8, 3, false, "Node[]", 16 + 3*8},
		{"NewByteArray(n)", NewByteArray(13), true, 1, 13, true, "long[]", 16 + 13},
		{"NewByteArray(0)", NewByteArray(0), true, 8, 0, false, "long[]", 16},
	} {
		o := c.o
		if o.IsArray() != c.isArray || o.ElemBytes() != c.elemBytes || o.Len() != c.len || o.Packed() != c.packed {
			t.Errorf("%s: IsArray=%v ElemBytes=%d Len=%d Packed=%v, want %v %d %d %v", c.name,
				o.IsArray(), o.ElemBytes(), o.Len(), o.Packed(), c.isArray, c.elemBytes, c.len, c.packed)
		}
		if got := o.Type().FullyQualifiedName(); got != c.typ {
			t.Errorf("%s: Type = %s, want %s", c.name, got, c.typ)
		}
		if got := o.SnapshotSize(); got != c.size {
			t.Errorf("%s: SnapshotSize = %d, want %d", c.name, got, c.size)
		}
	}
}

// TestRuntimeObjectsOutsideSnapshot checks that a fresh allocation reads
// as a runtime object until a snapshot takes it.
func TestRuntimeObjectsOutsideSnapshot(t *testing.T) {
	p := testClasses(t)
	o := NewObject(p.Class("Node"))
	if o.InSnapshot() || o.SeqID() != -1 {
		t.Fatalf("new object: InSnapshot=%v SeqID=%d", o.InSnapshot(), o.SeqID())
	}
	BuildSnapshot([]RootRef{{Obj: o, Reason: ReasonDataSection}})
	if !o.InSnapshot() || o.SeqID() != 0 {
		t.Fatalf("snapshot object: InSnapshot=%v SeqID=%d", o.InSnapshot(), o.SeqID())
	}
}

func TestNewObjectZeroed(t *testing.T) {
	p := testClasses(t)
	o := NewObject(p.Class("Node"))
	if !o.Slots[0].IsNull() {
		t.Errorf("ref field not null: %v", o.Slots[0])
	}
	if o.Slots[1].Kind != VInt || o.Slots[1].Int() != 0 {
		t.Errorf("int field not zero: %v", o.Slots[1])
	}
}

func TestNewZeroedByKind(t *testing.T) {
	b := ir.NewBuilder("zero")
	b.Class(ir.StringClass)
	b.Class("Z").Field("i", ir.Int()).Field("f", ir.Float()).
		Field("r", ir.Ref("Z")).Field("a", ir.Array(ir.Int()))
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	z := p.Class("Z")
	o := NewObject(z)
	cases := []struct {
		field string
		typ   ir.TypeRef
		want  Value
	}{
		{"i", ir.Int(), IntVal(0)},
		{"f", ir.Float(), FloatVal(0)},
		{"r", ir.Ref("Z"), Null()},
		{"a", ir.Array(ir.Int()), Null()},
	}
	for _, c := range cases {
		if got := o.GetField(z.LookupField(c.field)); got != c.want {
			t.Errorf("field %s = %+v, want %+v", c.field, got, c.want)
		}
		arr := NewArray(&c.typ, 3)
		for i := 0; i < arr.Len(); i++ {
			if got := arr.GetElem(i); got != c.want {
				t.Errorf("%s array elem %d = %+v, want %+v", c.typ.FullyQualifiedName(), i, got, c.want)
			}
		}
	}
}

func TestFieldAndElemAccess(t *testing.T) {
	p := testClasses(t)
	n := NewObject(p.Class("Node"))
	valF := p.Class("Node").LookupField("val")
	n.SetField(valF, IntVal(7))
	if got := n.GetField(valF).Int(); got != 7 {
		t.Errorf("val = %d", got)
	}
	a := NewArray(typeOf(ir.Int()), 3)
	a.SetElem(1, IntVal(5))
	if got := a.GetElem(1).Int(); got != 5 {
		t.Errorf("elem = %d", got)
	}
	if a.Len() != 3 {
		t.Errorf("len = %d", a.Len())
	}
}

func TestPackedByteArray(t *testing.T) {
	a := NewByteArray(1000)
	if a.Len() != 1000 {
		t.Fatalf("len = %d", a.Len())
	}
	if got := a.SnapshotSize(); got != 16+1000 {
		t.Errorf("size = %d", got)
	}
	v1, v2 := a.GetElem(5), a.GetElem(5)
	if v1 != v2 {
		t.Error("packed reads not deterministic")
	}
	defer func() {
		if recover() == nil {
			t.Error("write to packed array did not panic")
		}
	}()
	a.SetElem(0, IntVal(1))
}

func TestSnapshotSizes(t *testing.T) {
	p := testClasses(t)
	n := NewObject(p.Class("Node"))
	if got := n.SnapshotSize(); got != 16+2*8 {
		t.Errorf("node size = %d", got)
	}
	s := NewString(p.Class(ir.StringClass), "hello")
	if got := s.SnapshotSize(); got != 16+8+8 {
		t.Errorf("string size = %d", got)
	}
	a := NewArray(typeOf(ir.Float()), 4)
	if got := a.SnapshotSize(); got != 16+32 {
		t.Errorf("array size = %d", got)
	}
}

func TestInterns(t *testing.T) {
	p := testClasses(t)
	in := NewInterns(p.Class(ir.StringClass))
	a := in.Intern("x")
	b := in.Intern("x")
	c := in.Intern("y")
	if a != b {
		t.Error("same literal interned twice")
	}
	if a == c {
		t.Error("distinct literals share object")
	}
	if len(in.All()) != 2 {
		t.Errorf("interned count = %d", len(in.All()))
	}
}

// TestStaticsDefaults: an unset static reads as its kind's zero value,
// before and after other statics of its class are written, and a written
// static reads back.
func TestStaticsDefaults(t *testing.T) {
	b := ir.NewBuilder("statics")
	b.Class(ir.StringClass)
	b.Class("Node").Field("next", ir.Ref("Node")).
		Static("tmp", ir.Ref("Node")).Static("count", ir.Int()).Static("ratio", ir.Float())
	b.Class("Other").Static("x", ir.Float())
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	node := p.Class("Node")
	tmp, count, ratio := node.LookupStatic("tmp"), node.LookupStatic("count"), node.LookupStatic("ratio")
	other := p.Class("Other").LookupStatic("x")
	st := NewStatics()
	defaults := func(when string) {
		t.Helper()
		if !st.Get(tmp).IsNull() {
			t.Errorf("%s: unset ref static not null", when)
		}
		if v := st.Get(count); v != IntVal(0) {
			t.Errorf("%s: unset int static = %v, want int 0", when, v)
		}
		if v := st.Get(other); v != FloatVal(0) {
			t.Errorf("%s: unset float static of another class = %v, want float 0", when, v)
		}
	}
	defaults("empty storage")
	if v := st.Get(ratio); v != FloatVal(0) {
		t.Errorf("unset float static = %v, want float 0", v)
	}
	st.Set(ratio, FloatVal(2.5))
	defaults("after writing a sibling")
	if st.Get(ratio).Float() != 2.5 {
		t.Error("set/get float static")
	}
	st.Set(tmp, IntVal(3))
	if st.Get(tmp).Int() != 3 {
		t.Error("set/get static")
	}
}

func TestBuildSnapshotOrderAndParents(t *testing.T) {
	p := testClasses(t)
	node := p.Class("Node")
	nextF := node.LookupField("next")

	// chain: a -> b -> c; root is a.
	a, b2, c := NewObject(node), NewObject(node), NewObject(node)
	a.SetField(nextF, RefVal(b2))
	b2.SetField(nextF, RefVal(c))

	s := BuildSnapshot([]RootRef{{Obj: a, Reason: "Main.head"}})
	if len(s.Objects) != 3 {
		t.Fatalf("objects = %d", len(s.Objects))
	}
	if s.Objects[0] != a || s.Objects[1] != b2 || s.Objects[2] != c {
		t.Fatal("encounter order wrong")
	}
	if !s.IsRoot(a) || s.Reason(a) != "Main.head" || s.Parent(a) != nil {
		t.Errorf("root metadata: root=%v reason=%q parent=%v", s.IsRoot(a), s.Reason(a), s.Parent(a))
	}
	if s.Parent(b2) != a || s.Entity(b2).ParentSlot() != nextF.Slot || s.Reason(b2) != "" {
		t.Errorf("b parent: %v slot %d", s.Parent(b2), s.Entity(b2).ParentSlot())
	}
	for i, o := range s.Objects {
		if o.SeqID() != i {
			t.Errorf("SeqID[%d] = %d", i, o.SeqID())
		}
		if !o.InSnapshot() || s.Size(o) != o.SnapshotSize() {
			t.Errorf("object %d metadata: snap=%v size=%d", i, o.InSnapshot(), s.Size(o))
		}
	}
}

func TestBuildSnapshotSharedAndCyclic(t *testing.T) {
	p := testClasses(t)
	node := p.Class("Node")
	nextF := node.LookupField("next")

	// cycle: x -> y -> x, plus second root z -> y (y already included).
	x, y, z := NewObject(node), NewObject(node), NewObject(node)
	x.SetField(nextF, RefVal(y))
	y.SetField(nextF, RefVal(x))
	z.SetField(nextF, RefVal(y))

	s := BuildSnapshot([]RootRef{
		{Obj: x, Reason: "A.f"},
		{Obj: z, Reason: "B.g"},
	})
	if len(s.Objects) != 3 {
		t.Fatalf("objects = %d (cycle mishandled?)", len(s.Objects))
	}
	// y's first path must be via x, not z.
	if s.Parent(y) != x {
		t.Errorf("y.Parent = %v", s.Parent(y))
	}
	if s.Parent(z) != nil || !s.IsRoot(z) || s.Reason(z) != "B.g" {
		t.Errorf("z should be root")
	}
}

// TestBuildSnapshotSkipsOtherSnapshots checks that a snapshot takes no
// object another snapshot holds, nor what is reachable only through one,
// skips nil roots, and allocates its tables at their exact size.
func TestBuildSnapshotSkipsOtherSnapshots(t *testing.T) {
	p := testClasses(t)
	node := p.Class("Node")
	nextF := node.LookupField("next")
	x, y, w, v := NewObject(node), NewObject(node), NewObject(node), NewObject(node)
	x.SetField(nextF, RefVal(y))
	y.SetField(nextF, RefVal(w))
	v.SetField(nextF, RefVal(x))
	first := BuildSnapshot([]RootRef{{Obj: y, Reason: "A.f"}})
	if len(first.Objects) != 2 || w.SeqID() != 1 {
		t.Fatalf("first snapshot: %d objects, w at %d", len(first.Objects), w.SeqID())
	}
	s := BuildSnapshot([]RootRef{{Obj: nil}, {Obj: w}, {Obj: v, Reason: "B.g"}, {Obj: y}})
	if len(s.Objects) != 2 || s.Objects[0] != v || s.Objects[1] != x || s.Parent(x) != v {
		t.Fatalf("second snapshot took %d objects: %v", len(s.Objects), s.Objects)
	}
	if len(s.Roots) != 1 || s.Reason(v) != "B.g" || y.SeqID() != 0 || w.SeqID() != 1 {
		t.Fatalf("roots %d, reason %q, y at %d, w at %d", len(s.Roots), s.Reason(v), y.SeqID(), w.SeqID())
	}
	if cap(s.Objects) != len(s.Objects) || cap(s.meta) != len(s.Objects) || cap(s.Roots) != len(s.Roots) {
		t.Fatalf("tables not exact: objects %d/%d, meta %d, roots %d/%d",
			len(s.Objects), cap(s.Objects), cap(s.meta), len(s.Roots), cap(s.Roots))
	}
}

func TestBuildSnapshotArrayParents(t *testing.T) {
	p := testClasses(t)
	node := p.Class("Node")
	arr := NewArray(typeOf(ir.Ref("Node")), 3)
	n := NewObject(node)
	arr.SetElem(2, RefVal(n))
	s := BuildSnapshot([]RootRef{{Obj: arr, Reason: ReasonDataSection}})
	if len(s.Objects) != 2 {
		t.Fatalf("objects = %d", len(s.Objects))
	}
	if s.Parent(n) != arr || s.Entity(n).ParentSlot() != 2 || !s.Entity(n).FirstParent().IsArray() {
		t.Errorf("array parent: %v idx=%d", s.Parent(n), s.Entity(n).ParentSlot())
	}
}

func TestBuildSnapshotDuplicateRootKeepsFirstReason(t *testing.T) {
	p := testClasses(t)
	o := NewObject(p.Class("Node"))
	s := BuildSnapshot([]RootRef{
		{Obj: o, Reason: "first"},
		{Obj: o, Reason: "second"},
	})
	if len(s.Objects) != 1 || s.Reason(o) != "first" {
		t.Fatalf("objects=%d reason=%q", len(s.Objects), s.Reason(o))
	}
	if len(s.Roots) != 1 {
		t.Fatalf("roots = %d", len(s.Roots))
	}
}

func TestLayoutAlignedAndNonOverlapping(t *testing.T) {
	p := testClasses(t)
	var objs []*Object
	objs = append(objs, NewString(p.Class(ir.StringClass), "abc"))
	objs = append(objs, NewObject(p.Class("Node")))
	objs = append(objs, NewByteArray(13))
	var roots []RootRef
	for _, o := range objs {
		roots = append(roots, RootRef{Obj: o, Reason: ReasonDataSection})
	}
	s := BuildSnapshot(roots)
	// Lay out in reverse encounter order: offsets follow the given order.
	order := []*Object{objs[2], objs[1], objs[0]}
	total := s.Layout(order)
	var prevEnd int64
	for i, o := range order {
		if s.Offset(o)%8 != 0 {
			t.Errorf("object %d offset %d not aligned", i, s.Offset(o))
		}
		if s.Offset(o) < prevEnd {
			t.Errorf("object %d overlaps previous", i)
		}
		prevEnd = s.Offset(o) + s.Size(o)
	}
	if total < prevEnd {
		t.Errorf("total %d < end %d", total, prevEnd)
	}
}

func TestValueTruthiness(t *testing.T) {
	f := func(v int64) bool {
		return IntVal(v).Truthy() == (v != 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Null().Truthy() {
		t.Error("null is truthy")
	}
	p := testClasses(t)
	if !RefVal(NewObject(p.Class("Node"))).Truthy() {
		t.Error("object is falsy")
	}
	if FloatVal(0).Truthy() || !FloatVal(1.5).Truthy() {
		t.Error("float truthiness")
	}
}

func TestEntityInspection(t *testing.T) {
	p := testClasses(t)
	pair := NewObject(p.Class("Pair"))
	str := NewString(p.Class(ir.StringClass), "s")
	n := NewObject(p.Class("Node"))
	pair.SetField(p.Class("Pair").LookupField("a"), RefVal(str))
	pair.SetField(p.Class("Pair").LookupField("b"), RefVal(n))

	e := ObjEntity(pair)
	if !e.IsObjectInstance() || e.IsArray() || e.IsNull() || e.IsPrimitive() {
		t.Error("pair classification")
	}
	if e.NumFields() != 2 {
		t.Fatalf("NumFields = %d", e.NumFields())
	}
	fa := e.GetFieldWrapper(0)
	if !fa.IsString() {
		t.Error("field a should be string")
	}
	fb := e.GetFieldWrapper(1)
	if fb.Type().FullyQualifiedName() != "Node" {
		t.Errorf("field b type = %s", fb.Type())
	}

	arr := NewArray(typeOf(ir.Int()), 2)
	arr.SetElem(0, IntVal(9))
	ae := ObjEntity(arr)
	if !ae.IsArray() || ae.Length() != 2 {
		t.Error("array classification")
	}
	if ae.GetElementWrapper(0).Value().Int() != 9 {
		t.Error("element wrapper value")
	}
	if !ae.GetElementWrapper(0).IsPrimitive() {
		t.Error("int element should be primitive")
	}

	ne := ObjEntity(nil)
	if !ne.IsNull() {
		t.Error("nil entity should be null")
	}
}

func TestEntityRootMetadata(t *testing.T) {
	p := testClasses(t)
	node := p.Class("Node")
	nextF := node.LookupField("next")
	a, b2 := NewObject(node), NewObject(node)
	a.SetField(nextF, RefVal(b2))
	s := BuildSnapshot([]RootRef{{Obj: a, Reason: ReasonInternedString}})

	ea := s.Entity(a)
	if !ea.IsRoot() || ea.InclusionReason() != ReasonInternedString || !ea.FirstParent().IsNull() {
		t.Error("root metadata via entity")
	}
	eb := s.Entity(b2)
	if eb.IsRoot() || eb.FirstParent().Object() != a || eb.ParentSlot() != nextF.Slot {
		t.Error("child metadata via entity")
	}
	// Entities derived from a snapshot entity read the same metadata.
	if fb := ea.GetFieldWrapper(nextF.Slot); fb.Object() != b2 || fb.FirstParent().Object() != a {
		t.Error("field wrapper lost the snapshot metadata")
	}
	// Without a snapshot, an entity reads as unrooted and parentless.
	if e := ObjEntity(b2); e.IsRoot() || !e.FirstParent().IsNull() || e.InclusionReason() != "" {
		t.Error("entity without a snapshot reported snapshot metadata")
	}
}

func TestValueString(t *testing.T) {
	p := testClasses(t)
	cases := []struct {
		v    Value
		want string
	}{
		{IntVal(42), "42"},
		{FloatVal(1.5), "1.5"},
		{Null(), "null"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v, got, c.want)
		}
	}
	o := NewObject(p.Class("Node"))
	if s := RefVal(o).String(); !strings.HasPrefix(s, "Node@") {
		t.Errorf("object string = %q", s)
	}
}

func TestNewStringRequiresStringClass(t *testing.T) {
	p := testClasses(t)
	defer func() {
		if recover() == nil {
			t.Fatal("NewString accepted a non-string class")
		}
	}()
	NewString(p.Class("Node"), "boom")
}

func TestEntityTypeFallbacks(t *testing.T) {
	p := testClasses(t)
	_ = p
	// A primitive float value types as double regardless of slot type.
	fe := ValEntity(FloatVal(2.0), ir.Ref("whatever"))
	if fe.Type().FullyQualifiedName() != "double" {
		t.Errorf("float entity type = %s", fe.Type())
	}
	// A null reference types as the declared slot type.
	ne := ValEntity(Null(), ir.Ref("Node"))
	if ne.Type().FullyQualifiedName() != "Node" {
		t.Errorf("null entity type = %s", ne.Type())
	}
	// An integer read from an int slot types as long.
	ie := ValEntity(IntVal(3), ir.Int())
	if ie.Type().FullyQualifiedName() != "long" {
		t.Errorf("int entity type = %s", ie.Type())
	}
	if ie.NumFields() != 0 {
		t.Error("primitive entity has fields")
	}
}

func TestInternsRemoveEmpty(t *testing.T) {
	p := testClasses(t)
	in := NewInterns(p.Class(ir.StringClass))
	in.Intern("keep")
	in.Remove(nil) // no-op
	if len(in.All()) != 1 {
		t.Error("Remove(nil) changed the table")
	}
	in.Remove([]string{"keep", "absent"})
	if len(in.All()) != 0 {
		t.Error("Remove missed an entry")
	}
	// Re-interning after removal creates a fresh object.
	if in.Intern("keep") == nil {
		t.Error("re-intern failed")
	}
}
