package core

import (
	"encoding/binary"

	"nimage/internal/heap"
	"nimage/internal/ir"
	"nimage/internal/murmur"
)

// Heap-ordering strategy names (Sec. 5).
const (
	StrategyIncremental = "incremental id"
	StrategyStructural  = "structural hash"
	StrategyHeapPath    = "heap path"
	StrategyCombined    = "cu+heap path"
)

// HeapStrategy computes 64-bit object identities for every object of a heap
// snapshot. The same strategy runs in the profiling build (IDs recorded by
// the instrumentation) and in the optimizing build (IDs matched against the
// profile), so identities must be as stable across builds as possible.
type HeapStrategy interface {
	// Name returns the strategy name used in profiles and reports.
	Name() string
	// AssignIDs computes the ID of every snapshot object. Objects are
	// processed in encounter order (SeqID order).
	AssignIDs(snap *heap.Snapshot) map[*heap.Object]uint64
}

// HeapStrategies returns the three strategies of the paper with their
// default parameters.
func HeapStrategies() []HeapStrategy {
	return []HeapStrategy{
		IncrementalID{},
		StructuralHash{MaxDepth: DefaultMaxDepth},
		HeapPath{},
	}
}

// HeapStrategyByName returns the registered identity strategy with the
// given name, or nil.
func HeapStrategyByName(name string) HeapStrategy {
	for _, s := range HeapStrategies() {
		if s.Name() == name {
			return s
		}
	}
	return nil
}

// typeID32 derives the stable 32-bit type identifier stored in the upper
// half of incremental IDs. Types are uniquely identified by fully qualified
// name across compilations (Sec. 5.1), so a name hash is stable.
func typeID32(t ir.TypeRef) uint32 {
	return uint32(murmur.Sum64([]byte(t.FullyQualifiedName())))
}

// IncrementalID implements Algorithm 1: objects receive incremental IDs in
// object-encounter order during heap snapshotting, counted per type: the
// most-significant 32 bits identify the type, the least-significant 32 bits
// count instances of that type. Per-type counters confine the inaccuracy
// introduced by an extra/missing object to objects of the same type.
type IncrementalID struct{}

// Name implements HeapStrategy.
func (IncrementalID) Name() string { return StrategyIncremental }

// AssignIDs implements HeapStrategy.
func (IncrementalID) AssignIDs(snap *heap.Snapshot) map[*heap.Object]uint64 {
	ids := make(map[*heap.Object]uint64, len(snap.Objects))
	counters := make(map[uint32]uint32)
	for _, o := range snap.Objects {
		tid := typeID32(o.Type())
		counters[tid]++
		ids[o] = uint64(tid)<<32 | uint64(counters[tid])
	}
	return ids
}

// DefaultMaxDepth is the recursion bound of the structural hash; the paper
// determines 2 as a good trade-off between computation time, collision
// probability, and cross-build matching probability (Sec. 7.1).
const DefaultMaxDepth = 2

// StructuralHash implements Algorithm 2: the object (type name, fields,
// array elements, and neighbours up to MaxDepth) is encoded into a byte
// buffer and hashed with MurmurHash3. The paper's own hash is used instead
// of identity hash codes because those are not stable across compilations
// (Sec. 5.2).
type StructuralHash struct {
	// MaxDepth bounds recursion into the object graph; 0 means
	// DefaultMaxDepth.
	MaxDepth int
}

// Name implements HeapStrategy.
func (StructuralHash) Name() string { return StrategyStructural }

// AssignIDs implements HeapStrategy.
func (s StructuralHash) AssignIDs(snap *heap.Snapshot) map[*heap.Object]uint64 {
	ids := make(map[*heap.Object]uint64, len(snap.Objects))
	for _, o := range snap.Objects {
		ids[o] = s.Hash(heap.ObjEntity(o))
	}
	return ids
}

// Hash computes the structural hash of one entity (function structuralHash
// of Algorithm 2).
func (s StructuralHash) Hash(e heap.Entity) uint64 {
	maxDepth := s.MaxDepth
	if maxDepth <= 0 {
		maxDepth = DefaultMaxDepth
	}
	var buf []byte
	buf = encodeToBytes(buf, e, 0, maxDepth)
	return murmur.Sum64(buf)
}

// encodeToBytes is function encodeToBytes of Algorithm 2. It appends the
// encoding of e at the given recursion depth to buf and returns it.
func encodeToBytes(buf []byte, e heap.Entity, depth, maxDepth int) []byte {
	if e.IsNull() {
		return append(buf, 0)
	}
	buf = append(buf, e.Type().FullyQualifiedName()...)
	shouldRecurse := depth < maxDepth
	switch {
	case e.IsPrimitive():
		buf = appendPrimitive(buf, e.Value())
	case e.IsString():
		buf = append(buf, e.Object().Str...)
	case e.IsObjectInstance():
		for k := 0; k < e.NumFields(); k++ {
			field := e.GetFieldWrapper(k)
			if shouldRecurse || field.IsPrimitive() || field.IsString() {
				// The static type of the field (its declared type), then
				// the recursive encoding of the field value.
				buf = append(buf, e.FieldDecl(k).Type.FullyQualifiedName()...)
				buf = encodeToBytes(buf, field, depth+1, maxDepth)
			}
		}
	case e.IsArray():
		elem := e.ElementType()
		buf = append(buf, elem.FullyQualifiedName()...)
		buf = appendInt(buf, int64(e.Length()))
		if o := e.Object(); o != nil && o.Packed() {
			// Packed byte arrays have deterministic pseudo-contents fully
			// determined by their length; encoding a marker is lossless
			// and avoids materializing megabytes of metadata.
			return append(buf, "packed"...)
		}
		if shouldRecurse || elem.IsPrimitive() || elem.IsString() {
			for k := 0; k < e.Length(); k++ {
				buf = appendInt(buf, int64(k))
				buf = encodeToBytes(buf, e.GetElementWrapper(k), depth+1, maxDepth)
			}
		}
	}
	return buf
}

func appendPrimitive(buf []byte, v heap.Value) []byte {
	return appendInt(buf, v.Bits)
}

func appendInt(buf []byte, v int64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	return append(buf, b[:]...)
}

// HeapPath implements Algorithm 3: the object's ID is the MurmurHash3 of
// the first path from the object up to its heap root — type names joined
// with the field descriptors / array indices along the path — plus the
// root's heap-inclusion reason. Interned-string roots hash their string
// value instead of the (shared) path. Heap paths are less sensitive to
// cross-build divergence than encounter order, but only the single
// inclusion path is considered, which may differ across compilations
// (Sec. 5.3).
type HeapPath struct{}

// Name implements HeapStrategy.
func (HeapPath) Name() string { return StrategyHeapPath }

// AssignIDs implements HeapStrategy.
func (HeapPath) AssignIDs(snap *heap.Snapshot) map[*heap.Object]uint64 {
	ids := make(map[*heap.Object]uint64, len(snap.Objects))
	for _, o := range snap.Objects {
		ids[o] = HeapPathHash(snap.Entity(o))
	}
	return ids
}

// HeapPathHash computes the 64-bit heap-path hash of one entity (function
// heapPathHash of Algorithm 3). The path is read from the snapshot
// metadata the entity carries (Snapshot.Entity); an entity without it
// hashes as an unrooted object.
func HeapPathHash(e heap.Entity) uint64 {
	if e.IsNull() {
		return 0
	}
	var buf []byte
	if e.IsRoot() && e.InclusionReason() == heap.ReasonInternedString {
		buf = append(buf, e.Object().Str...)
		return murmur.Sum64(buf)
	}
	for {
		buf = append(buf, typeNameOf(e.Object())...)
		if e.IsRoot() {
			buf = append(buf, e.InclusionReason()...)
			break
		}
		parent := e.FirstParent()
		if parent.IsNull() {
			// Unrooted object outside a snapshot traversal; hash what we
			// have rather than loop forever.
			break
		}
		if parent.IsArray() {
			buf = appendInt(buf, int64(e.ParentSlot()))
		} else {
			buf = append(buf, parent.FieldDecl(e.ParentSlot()).Descriptor()...)
		}
		e = parent
	}
	return murmur.Sum64(buf)
}

func typeNameOf(o *heap.Object) string { return o.Type().FullyQualifiedName() }
