package verify

import (
	"fmt"
	"sort"
	"strconv"

	"nimage/internal/graal"
	"nimage/internal/heap"
	"nimage/internal/image"
)

// cuDigest renders a compilation unit's identity and compiled body:
// everything that must survive reordering byte-for-byte. Two CUs digest
// equal iff the same root was inlined the same way with the same folded
// constants — i.e. the reorder moved the unit without recompiling it.
func cuDigest(cu *graal.CompilationUnit) uint64 {
	h := chain(digestSeed, "cu "+cu.Root.Signature())
	h = chain(h, "size "+strconv.Itoa(cu.Size))
	for _, m := range cu.Inlined {
		h = chain(h, "inl "+m.Signature())
	}
	for _, c := range cu.Constants {
		h = chain(h, fmt.Sprintf("const %q folded %v src %s", c.Literal, c.Folded, c.Source.Signature()))
	}
	return h
}

// objDigest renders a snapshot object's build-time identity shallowly
// (type, size, contents one level deep). Shallow is deliberate: a deep
// digest would make every object's digest depend on most of the heap and
// mask which object actually changed.
func objDigest(s *heap.Snapshot, o *heap.Object) uint64 {
	h := chain(digestSeed, "obj "+o.TypeName())
	h = chain(h, "size "+strconv.FormatInt(s.Size(o), 10))
	h = chain(h, "reason "+s.Reason(o))
	switch {
	case o.IsString():
		h = chain(h, "s:"+o.Str)
	case o.Packed():
		h = chain(h, "packed:"+strconv.Itoa(o.Len()))
	default:
		if o.IsArray() {
			h = chain(h, "len:"+strconv.Itoa(o.Len()))
		}
		for i := range o.Slots {
			h = chain(h, renderValue(o.Slots[i]))
		}
	}
	return h
}

// multisetDiff compares two digest multisets and reports up to a few
// digests whose counts differ, tagged with which side has more.
func multisetDiff(a, b map[uint64]int) string {
	keys := make(map[uint64]bool, len(a)+len(b))
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	var diffs []string
	for k := range keys {
		if a[k] != b[k] {
			diffs = append(diffs, fmt.Sprintf("%#x: %d vs %d", k, a[k], b[k]))
		}
	}
	sort.Strings(diffs)
	if len(diffs) > 4 {
		diffs = append(diffs[:4], fmtCount("… %d more", len(diffs)-4))
	}
	if len(diffs) == 0 {
		return ""
	}
	return fmt.Sprintf("%d differing digests: %v", len(diffs), diffs)
}

// cuMultiset digests every laid-out CU of an image.
func cuMultiset(img *image.Image) map[uint64]int {
	m := make(map[uint64]int, len(img.CULayout))
	for _, cu := range img.CULayout {
		m[cuDigest(cu)]++
	}
	return m
}

// objMultiset digests every laid-out snapshot object of an image.
func objMultiset(img *image.Image) map[uint64]int {
	m := make(map[uint64]int, len(img.ObjLayout))
	for _, o := range img.ObjLayout {
		m[objDigest(img.Snapshot, o)]++
	}
	return m
}

// layoutCheck is one named metamorphic invariant over a pair of images
// (or a single image); fail returns "" when the invariant holds.
type layoutCheck struct {
	name string
	fail string
}

// permutationChecks asserts that opt is a pure permutation of ref: same CU
// bodies (as a multiset), same object set, same section extents. ref is a
// KindOptimized build with the same seed and compiler but no profiles, so
// the two images differ only in layout order.
func permutationChecks(ref, opt *image.Image) []layoutCheck {
	var cs []layoutCheck
	add := func(name, fail string) {
		cs = append(cs, layoutCheck{name: name, fail: fail})
	}

	if d := multisetDiff(cuMultiset(ref), cuMultiset(opt)); d != "" {
		add("cu-multiset", "CU bodies are not a permutation: "+d)
	} else {
		add("cu-multiset", "")
	}
	if d := multisetDiff(objMultiset(ref), objMultiset(opt)); d != "" {
		add("object-multiset", "snapshot objects are not a permutation: "+d)
	} else {
		add("object-multiset", "")
	}

	sec := ""
	switch {
	case ref.TextSection != opt.TextSection:
		sec = fmt.Sprintf(".text differs: %+v vs %+v", ref.TextSection, opt.TextSection)
	case ref.NativeOff != opt.NativeOff || ref.NativeLen != opt.NativeLen:
		sec = fmt.Sprintf("native tail differs: [%d,+%d) vs [%d,+%d)",
			ref.NativeOff, ref.NativeLen, opt.NativeOff, opt.NativeLen)
	case ref.HeapSection.Off != opt.HeapSection.Off:
		sec = fmt.Sprintf(".svm_heap offset differs: %d vs %d", ref.HeapSection.Off, opt.HeapSection.Off)
	case abs64(ref.HeapSection.Len-opt.HeapSection.Len) > 8:
		// The heap section length may legitimately differ by the final
		// object's alignment padding (objects are padded to 8 bytes; the
		// section ends at the last object's end).
		sec = fmt.Sprintf(".svm_heap length differs by more than padding: %d vs %d",
			ref.HeapSection.Len, opt.HeapSection.Len)
	case ref.FileSize != opt.FileSize:
		sec = fmt.Sprintf("file size differs: %d vs %d", ref.FileSize, opt.FileSize)
	}
	add("sections", sec)
	return cs
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// offsetChecks asserts the internal geometry of one image: CU offsets
// strictly increasing, 16-aligned, and inside [.text, native); object
// offsets 8-aligned and non-overlapping in layout order.
func offsetChecks(img *image.Image) []layoutCheck {
	var cs []layoutCheck
	cuFail := ""
	prevEnd := img.TextSection.Off
	for _, cu := range img.CULayout {
		off := img.CUOffset(cu)
		switch {
		case off%16 != 0:
			cuFail = fmt.Sprintf("CU %s at unaligned offset %d", cu.Root.Signature(), off)
		case off < prevEnd:
			cuFail = fmt.Sprintf("CU %s at %d overlaps previous end %d", cu.Root.Signature(), off, prevEnd)
		case off+int64(cu.Size) > img.NativeOff:
			cuFail = fmt.Sprintf("CU %s [%d,+%d) extends past native tail at %d",
				cu.Root.Signature(), off, cu.Size, img.NativeOff)
		}
		if cuFail != "" {
			break
		}
		prevEnd = off + int64(cu.Size)
	}
	cs = append(cs, layoutCheck{name: "cu-offsets", fail: cuFail})

	objFail := ""
	var prev int64
	for _, o := range img.ObjLayout {
		off, size := img.Snapshot.Offset(o), img.Snapshot.Size(o)
		switch {
		case off%8 != 0:
			objFail = fmt.Sprintf("object %s at unaligned heap offset %d", o.TypeName(), off)
		case off < prev:
			objFail = fmt.Sprintf("object %s at %d overlaps previous end %d", o.TypeName(), off, prev)
		case off+size > img.HeapSection.Len:
			objFail = fmt.Sprintf("object %s [%d,+%d) extends past heap section length %d",
				o.TypeName(), off, size, img.HeapSection.Len)
		}
		if objFail != "" {
			break
		}
		prev = off + size
	}
	cs = append(cs, layoutCheck{name: "object-offsets", fail: objFail})
	return cs
}

// statsChecks asserts that the image's reordering bookkeeping is
// internally consistent: the heap MatchResult partitions the snapshot and
// the code-order stats stay within profile and layout bounds.
func statsChecks(img *image.Image) []layoutCheck {
	var cs []layoutCheck
	add := func(name, fail string) {
		cs = append(cs, layoutCheck{name: name, fail: fail})
	}

	heapFail := ""
	// The stats are only populated when a heap profile was applied (their
	// Order is the layout); unprofiled builds leave them zero.
	if mr := img.HeapMatchStats; mr.Order != nil {
		total := len(img.Snapshot.Objects)
		switch {
		case mr.MatchedObjects+mr.UnmatchedObjects != total:
			heapFail = fmtCount("matched %d + unmatched %d != %d snapshot objects",
				mr.MatchedObjects, mr.UnmatchedObjects, total)
		case mr.CollisionObjects > mr.MatchedObjects:
			heapFail = fmtCount("collision objects %d exceed matched %d",
				mr.CollisionObjects, mr.MatchedObjects)
		case mr.MatchedEntries > mr.ProfileLen:
			heapFail = fmtCount("matched entries %d exceed profile length %d",
				mr.MatchedEntries, mr.ProfileLen)
		case len(mr.Order) != total:
			heapFail = fmtCount("layout holds %d objects, snapshot %d", len(mr.Order), total)
		}
	}
	add("heap-match-stats", heapFail)

	codeFail := ""
	if st := img.CodeOrderStats; st.Order != nil {
		switch {
		case st.Matched > st.ProfileLen:
			codeFail = fmtCount("matched %d CUs exceed profile length %d", st.Matched, st.ProfileLen)
		case st.Matched > len(img.CULayout):
			codeFail = fmtCount("matched %d CUs exceed layout size %d", st.Matched, len(img.CULayout))
		case len(st.Order) != len(img.CULayout):
			codeFail = fmtCount("order holds %d CUs, layout %d", len(st.Order), len(img.CULayout))
		}
	}
	add("code-order-stats", codeFail)
	return cs
}

// seqIDStrategy is the verifier's private heap-ID scheme for the identity
// reorder: every object's ID is its collision-free build sequence number,
// so a profile listing the current layout order reproduces it exactly. A
// real strategy would not do (its IDs collide, and collision groups get
// pulled together), which is why the identity pass needs its own scheme.
type seqIDStrategy struct{}

func (seqIDStrategy) Name() string { return "verify-identity" }

func (seqIDStrategy) AssignIDs(s *heap.Snapshot) map[*heap.Object]uint64 {
	ids := make(map[*heap.Object]uint64, len(s.Objects))
	for k, o := range s.Objects {
		ids[o] = uint64(k) + 1
	}
	return ids
}

// identityProfiles derives, from an already-built optimized image, the
// profiles that describe its own layout: the CU signatures in layout order
// and the seq-IDs of its objects in layout order.
func identityProfiles(opt *image.Image) (code []string, heapProf []uint64) {
	code = make([]string, 0, len(opt.CULayout))
	for _, cu := range opt.CULayout {
		code = append(code, cu.Signature())
	}
	heapProf = make([]uint64, 0, len(opt.ObjLayout))
	for _, o := range opt.ObjLayout {
		heapProf = append(heapProf, uint64(o.SeqID())+1)
	}
	return code, heapProf
}

// identityChecks asserts that opt2 — rebuilt from profiles describing
// opt's own layout — reproduces opt exactly: per-signature CU offsets and
// per-seq-ID object offsets. Layout is a deterministic function of the
// (profile, program, seed) triple; feeding a layout back to itself is the
// metamorphic fixed point.
func identityChecks(opt, opt2 *image.Image) []layoutCheck {
	var cs []layoutCheck
	add := func(name, fail string) {
		cs = append(cs, layoutCheck{name: name, fail: fail})
	}

	cuFail := ""
	if len(opt.CULayout) != len(opt2.CULayout) {
		cuFail = fmtCount("CU counts differ: %d vs %d", len(opt.CULayout), len(opt2.CULayout))
	} else {
		off2 := make(map[string]int64, len(opt2.CULayout))
		for _, cu := range opt2.CULayout {
			off2[cu.Signature()] = opt2.CUOffset(cu)
		}
		for _, cu := range opt.CULayout {
			if got, ok := off2[cu.Signature()]; !ok || got != opt.CUOffset(cu) {
				cuFail = fmt.Sprintf("CU %s moved: %d vs %d", cu.Signature(), opt.CUOffset(cu), got)
				break
			}
		}
	}
	add("identity-cu-offsets", cuFail)

	objFail := ""
	if len(opt.ObjLayout) != len(opt2.ObjLayout) {
		objFail = fmtCount("object counts differ: %d vs %d", len(opt.ObjLayout), len(opt2.ObjLayout))
	} else {
		off2 := make(map[int]int64, len(opt2.ObjLayout))
		for _, o := range opt2.ObjLayout {
			off2[o.SeqID()] = opt2.Snapshot.Offset(o)
		}
		for _, o := range opt.ObjLayout {
			off := opt.Snapshot.Offset(o)
			if got, ok := off2[o.SeqID()]; !ok || got != off {
				objFail = fmt.Sprintf("object %s (seq %d) moved: %d vs %d", o.TypeName(), o.SeqID(), off, got)
				break
			}
		}
	}
	add("identity-object-offsets", objFail)
	return cs
}
