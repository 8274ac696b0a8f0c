package core

import (
	"testing"
	"testing/quick"

	"nimage/internal/graal"
	"nimage/internal/heap"
	"nimage/internal/ir"
)

// buildSnapshotProgram creates classes and a snapshot used across tests:
//
//	roots: Config (static field), two interned strings, a Node chain, and
//	an array of Nodes (DataSection).
func buildSnapshotProgram(t *testing.T) (*ir.Program, *heap.Snapshot, map[string]*heap.Object) {
	t.Helper()
	b := ir.NewBuilder("snap")
	b.Class(ir.StringClass)
	b.Class("Config").Field("name", ir.String()).Field("limit", ir.Int())
	b.Class("Node").Field("next", ir.Ref("Node")).Field("val", ir.Int())
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	str := p.Class(ir.StringClass)
	nodeC := p.Class("Node")
	nextF := nodeC.LookupField("next")
	valF := nodeC.LookupField("val")

	cfg := heap.NewObject(p.Class("Config"))
	cfgName := heap.NewString(str, "app.cfg")
	cfg.SetField(p.Class("Config").LookupField("name"), heap.RefVal(cfgName))
	cfg.SetField(p.Class("Config").LookupField("limit"), heap.IntVal(10))

	n1, n2 := heap.NewObject(nodeC), heap.NewObject(nodeC)
	n1.SetField(nextF, heap.RefVal(n2))
	n1.SetField(valF, heap.IntVal(1))
	n2.SetField(valF, heap.IntVal(2))

	s1 := heap.NewString(str, "interned-a")
	s2 := heap.NewString(str, "interned-b")

	nodeT := ir.Ref("Node")
	arr := heap.NewArray(&nodeT, 2)
	n3 := heap.NewObject(nodeC)
	n3.SetField(valF, heap.IntVal(3))
	arr.SetElem(0, heap.RefVal(n3))

	snap := heap.BuildSnapshot([]heap.RootRef{
		{Obj: cfg, Reason: "App.config"},
		{Obj: n1, Reason: "App.head"},
		{Obj: s1, Reason: heap.ReasonInternedString},
		{Obj: s2, Reason: heap.ReasonInternedString},
		{Obj: arr, Reason: heap.ReasonDataSection},
	})
	objs := map[string]*heap.Object{
		"cfg": cfg, "cfgName": cfgName, "n1": n1, "n2": n2, "n3": n3,
		"s1": s1, "s2": s2, "arr": arr,
	}
	return p, snap, objs
}

func TestIncrementalIDPerTypeCounters(t *testing.T) {
	_, snap, objs := buildSnapshotProgram(t)
	ids := IncrementalID{}.AssignIDs(snap)
	if len(ids) != len(snap.Objects) {
		t.Fatalf("ids = %d, objects = %d", len(ids), len(snap.Objects))
	}
	// Same type shares the upper 32 bits; counters increment in encounter
	// order.
	n1, n2, n3 := ids[objs["n1"]], ids[objs["n2"]], ids[objs["n3"]]
	if n1>>32 != n2>>32 || n2>>32 != n3>>32 {
		t.Error("Node instances differ in type ID")
	}
	if uint32(n1) != 1 || uint32(n2) != 2 || uint32(n3) != 3 {
		t.Errorf("counters = %d,%d,%d", uint32(n1), uint32(n2), uint32(n3))
	}
	// Different types get different type IDs.
	if ids[objs["cfg"]]>>32 == n1>>32 {
		t.Error("Config shares type ID with Node")
	}
	// Strings count separately from Nodes.
	if uint32(ids[objs["cfgName"]]) != 1 {
		t.Errorf("first string counter = %d", uint32(ids[objs["cfgName"]]))
	}
}

func TestIncrementalIDInsensitiveToOtherTypes(t *testing.T) {
	// A divergent build that encounters an extra object of a *different*
	// type first must not shift the counters of Node objects — the design
	// goal of per-type counters (Sec. 5.1). Counters of the same type do
	// shift.
	_, snapA, objsA := buildSnapshotProgram(t)
	idsA := IncrementalID{}.AssignIDs(snapA)

	// Divergent build: same graph, but one extra Config root visited first.
	p, snapB, objsB := buildSnapshotProgram(t)
	extra := heap.NewObject(p.Class("Config"))
	rootsB := []heap.RootRef{{Obj: extra, Reason: "Extra.cfg"}}
	// Reconstruct the same root list as buildSnapshotProgram; the objects
	// were already snapshotted once, so rebuild fresh metadata.
	for _, o := range []*heap.Object{objsB["cfg"], objsB["n1"], objsB["s1"], objsB["s2"], objsB["arr"]} {
		o2 := o
		rootsB = append(rootsB, heap.RootRef{Obj: o2, Reason: snapB.Reason(o2)})
	}
	// The second snapshot in buildSnapshotProgram already marked objects;
	// assigning IDs walks snapshot objects in SeqID order regardless.
	idsB := IncrementalID{}.AssignIDs(heap.BuildSnapshot([]heap.RootRef{{Obj: extra, Reason: "Extra.cfg"}}))
	_ = idsB
	// Merge: recompute over a combined ordering that places extra first.
	combined := append([]*heap.Object{extra}, snapObjectsOf(objsB)...)
	idsC := IncrementalID{}.AssignIDs(&heap.Snapshot{Objects: combined})
	nodeCounter := func(ids map[*heap.Object]uint64, o *heap.Object) uint32 { return uint32(ids[o]) }
	if nodeCounter(idsA, objsA["n1"]) != nodeCounter(idsC, objsB["n1"]) {
		t.Errorf("Node counter shifted by foreign-type insertion: %d vs %d",
			nodeCounter(idsA, objsA["n1"]), nodeCounter(idsC, objsB["n1"]))
	}
	if nodeCounter(idsA, objsA["cfg"]) == nodeCounter(idsC, objsB["cfg"]) {
		t.Error("Config counter unaffected by same-type insertion")
	}
}

// snapObjectsOf returns the test objects in their snapshot SeqID order.
func snapObjectsOf(objs map[string]*heap.Object) []*heap.Object {
	out := []*heap.Object{objs["cfg"], objs["cfgName"], objs["n1"], objs["n2"], objs["s1"], objs["s2"], objs["arr"], objs["n3"]}
	// Sort by SeqID to match encounter order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].SeqID() > out[j].SeqID(); j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

func TestStructuralHashStableAcrossRebuilds(t *testing.T) {
	_, _, objsA := buildSnapshotProgram(t)
	_, _, objsB := buildSnapshotProgram(t)
	sh := StructuralHash{MaxDepth: 2}
	for name := range objsA {
		ha := sh.Hash(heap.ObjEntity(objsA[name]))
		hb := sh.Hash(heap.ObjEntity(objsB[name]))
		if ha != hb {
			t.Errorf("%s: structural hash differs across identical builds", name)
		}
	}
}

func TestStructuralHashSensitiveToContent(t *testing.T) {
	p, _, objs := buildSnapshotProgram(t)
	sh := StructuralHash{MaxDepth: 2}
	before := sh.Hash(heap.ObjEntity(objs["cfg"]))
	objs["cfg"].SetField(p.Class("Config").LookupField("limit"), heap.IntVal(11))
	after := sh.Hash(heap.ObjEntity(objs["cfg"]))
	if before == after {
		t.Error("field change did not change structural hash")
	}
}

func TestStructuralHashDepthBounded(t *testing.T) {
	p, _, _ := buildSnapshotProgram(t)
	nodeC := p.Class("Node")
	nextF := nodeC.LookupField("next")
	valF := nodeC.LookupField("val")

	// Chain a -> b -> c -> d. With MaxDepth 1, a change at depth >= 2
	// (c.val) must not affect a's hash; a change at depth 1 (b.val) must.
	mk := func(cval, bval int64) uint64 {
		a, b, c, d := heap.NewObject(nodeC), heap.NewObject(nodeC), heap.NewObject(nodeC), heap.NewObject(nodeC)
		a.SetField(nextF, heap.RefVal(b))
		b.SetField(nextF, heap.RefVal(c))
		c.SetField(nextF, heap.RefVal(d))
		b.SetField(valF, heap.IntVal(bval))
		c.SetField(valF, heap.IntVal(cval))
		return StructuralHash{MaxDepth: 1}.Hash(heap.ObjEntity(a))
	}
	if mk(1, 1) != mk(2, 1) {
		t.Error("change beyond MaxDepth affected the hash")
	}
	if mk(1, 1) == mk(1, 2) {
		t.Error("change within MaxDepth did not affect the hash")
	}
}

func TestStructuralHashCyclesTerminate(t *testing.T) {
	p, _, _ := buildSnapshotProgram(t)
	nodeC := p.Class("Node")
	nextF := nodeC.LookupField("next")
	a, b := heap.NewObject(nodeC), heap.NewObject(nodeC)
	a.SetField(nextF, heap.RefVal(b))
	b.SetField(nextF, heap.RefVal(a)) // cycle
	// Must terminate thanks to MAX_DEPTH.
	_ = StructuralHash{MaxDepth: 3}.Hash(heap.ObjEntity(a))
}

func TestStructuralHashNullIsZeroByte(t *testing.T) {
	sh := StructuralHash{}
	if got := sh.Hash(heap.ObjEntity(nil)); got != sh.Hash(heap.ObjEntity(nil)) {
		t.Error("null hash not deterministic")
	}
}

func TestHeapPathHashDistinguishesPaths(t *testing.T) {
	_, snap, objs := buildSnapshotProgram(t)
	hn1 := HeapPathHash(snap.Entity(objs["n1"]))
	hn2 := HeapPathHash(snap.Entity(objs["n2"]))
	hn3 := HeapPathHash(snap.Entity(objs["n3"]))
	if hn1 == hn2 || hn1 == hn3 || hn2 == hn3 {
		t.Errorf("path hashes collide: %x %x %x", hn1, hn2, hn3)
	}
}

func TestHeapPathHashStableAcrossRebuilds(t *testing.T) {
	_, snapA, objsA := buildSnapshotProgram(t)
	_, snapB, objsB := buildSnapshotProgram(t)
	for name := range objsA {
		if HeapPathHash(snapA.Entity(objsA[name])) != HeapPathHash(snapB.Entity(objsB[name])) {
			t.Errorf("%s: heap-path hash differs across identical builds", name)
		}
	}
}

func TestHeapPathInternedStringsHashValue(t *testing.T) {
	_, snapA, objsA := buildSnapshotProgram(t)
	h1 := HeapPathHash(snapA.Entity(objsA["s1"]))
	h2 := HeapPathHash(snapA.Entity(objsA["s2"]))
	if h1 == h2 {
		t.Error("distinct interned strings share hash")
	}
	// The hash depends only on the value, not on interning order: build a
	// fresh snapshot with swapped intern order.
	_, snapB, objsB := buildSnapshotProgram(t)
	if HeapPathHash(snapB.Entity(objsB["s1"])) != h1 {
		t.Error("interned-string hash unstable")
	}
}

func TestHeapPathRobustToContentChanges(t *testing.T) {
	// Unlike structural hash, heap path ignores primitive field values —
	// the property that makes it robust to build-salted contents.
	p, snap, objs := buildSnapshotProgram(t)
	before := HeapPathHash(snap.Entity(objs["n2"]))
	p.Class("Node")
	objs["n2"].SetField(p.Class("Node").LookupField("val"), heap.IntVal(99))
	after := HeapPathHash(snap.Entity(objs["n2"]))
	if before != after {
		t.Error("heap-path hash changed with field value")
	}
}

func TestHeapPathNull(t *testing.T) {
	if HeapPathHash(heap.ObjEntity(nil)) != 0 {
		t.Error("null heap-path hash must be 0")
	}
}

func TestAssignIDsCoverAllObjects(t *testing.T) {
	_, snap, _ := buildSnapshotProgram(t)
	for _, s := range HeapStrategies() {
		ids := s.AssignIDs(snap)
		if len(ids) != len(snap.Objects) {
			t.Errorf("%s: %d ids for %d objects", s.Name(), len(ids), len(snap.Objects))
		}
	}
}

func TestOrderObjectsMatchesProfile(t *testing.T) {
	_, snap, objs := buildSnapshotProgram(t)
	ids := HeapPath{}.AssignIDs(snap)
	// Profile: n3 accessed first, then cfgName, then an unknown ID.
	profile := []uint64{ids[objs["n3"]], ids[objs["cfgName"]], 0xdeadbeef}
	res := OrderObjects(snap.Objects, ids, profile)
	if res.Order[0] != objs["n3"] || res.Order[1] != objs["cfgName"] {
		t.Fatalf("matched objects not first: %v", res.Order[:2])
	}
	if res.MatchedEntries != 2 || res.MatchedObjects != 2 {
		t.Errorf("match stats: %+v", res)
	}
	if res.MatchRate() != 2.0/3.0 {
		t.Errorf("match rate = %v", res.MatchRate())
	}
	// Permutation invariant: same multiset of objects.
	if len(res.Order) != len(snap.Objects) {
		t.Fatalf("order length %d", len(res.Order))
	}
	seen := make(map[*heap.Object]bool)
	for _, o := range res.Order {
		if seen[o] {
			t.Fatal("duplicate object in order")
		}
		seen[o] = true
	}
	// Unmatched tail preserves default order.
	tail := res.Order[2:]
	var prev int
	for i, o := range tail {
		if i > 0 && o.SeqID() < prev {
			t.Fatal("unmatched tail not in encounter order")
		}
		prev = o.SeqID()
	}
}

func TestOrderObjectsDuplicateIDsPullGroup(t *testing.T) {
	_, snap, objs := buildSnapshotProgram(t)
	// Force a collision: give every Node the same ID.
	ids := make(map[*heap.Object]uint64)
	for _, o := range snap.Objects {
		ids[o] = 1
	}
	ids[objs["n1"]], ids[objs["n2"]], ids[objs["n3"]] = 7, 7, 7
	res := OrderObjects(snap.Objects, ids, []uint64{7})
	if res.MatchedObjects != 3 {
		t.Fatalf("matched objects = %d, want all 3 colliding nodes", res.MatchedObjects)
	}
	if res.Order[0] != objs["n1"] || res.Order[1] != objs["n2"] || res.Order[2] != objs["n3"] {
		t.Error("colliding group must keep default relative order")
	}
}

func TestOrderObjectsEmptyProfileKeepsDefault(t *testing.T) {
	_, snap, _ := buildSnapshotProgram(t)
	ids := IncrementalID{}.AssignIDs(snap)
	res := OrderObjects(snap.Objects, ids, nil)
	for i, o := range res.Order {
		if o != snap.Objects[i] {
			t.Fatalf("object %d moved with empty profile", i)
		}
	}
}

func TestOrderObjectsIsPermutation(t *testing.T) {
	// Property: for random profiles, OrderObjects returns a permutation.
	_, snap, _ := buildSnapshotProgram(t)
	ids := IncrementalID{}.AssignIDs(snap)
	f := func(profile []uint64) bool {
		res := OrderObjects(snap.Objects, ids, profile)
		if len(res.Order) != len(snap.Objects) {
			return false
		}
		seen := make(map[*heap.Object]bool)
		for _, o := range res.Order {
			if seen[o] {
				return false
			}
			seen[o] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mkCUs builds synthetic CUs with the given root signatures.
func mkCUs(t *testing.T, sigs ...string) []*graal.CompilationUnit {
	t.Helper()
	b := ir.NewBuilder("cus")
	cb := b.Class("X")
	for _, s := range sigs {
		m := cb.StaticMethod(s, 0, ir.Void())
		m.Entry().RetVoid()
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var cus []*graal.CompilationUnit
	for _, s := range sigs {
		m := p.Class("X").DeclaredMethod(s)
		cus = append(cus, &graal.CompilationUnit{Root: m, Members: []*ir.Method{m}, Size: m.CodeSize()})
	}
	return cus
}

func TestOrderCUsProfileFirstThenDefault(t *testing.T) {
	cus := mkCUs(t, "a", "b", "c", "d")
	res := OrderCUs(cus, []string{"X.c(0)", "X.a(0)", "X.zz(0)"})
	got := []string{}
	for _, cu := range res.Order {
		got = append(got, cu.Root.Name)
	}
	want := []string{"c", "a", "b", "d"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if res.Matched != 2 || res.ProfileLen != 3 {
		t.Errorf("stats: %+v", res)
	}
}

func TestOrderCUsDuplicateProfileEntries(t *testing.T) {
	cus := mkCUs(t, "a", "b")
	res := OrderCUs(cus, []string{"X.b(0)", "X.b(0)", "X.a(0)"})
	if len(res.Order) != 2 || res.Order[0].Root.Name != "b" || res.Order[1].Root.Name != "a" {
		t.Fatalf("order broken with duplicates")
	}
}

func TestOrderCUsEmptyProfile(t *testing.T) {
	cus := mkCUs(t, "a", "b")
	res := OrderCUs(cus, nil)
	if res.Order[0] != cus[0] || res.Order[1] != cus[1] {
		t.Fatal("empty profile must keep default order")
	}
	if res.Matched != 0 {
		t.Fatal("matched nonzero on empty profile")
	}
}
