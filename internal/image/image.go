// Package image implements the simulated Native-Image builder: it compiles
// a program, executes the class initializers of reachable classes at build
// time, snapshots the resulting heap, and lays out the binary's .text and
// .svm_heap sections — by default alphabetically/in encounter order, or
// reordered by the profile-guided strategies of internal/core (Fig. 1).
//
// Three build kinds mirror the paper's pipeline: the regular build, the
// instrumented (profiling) build — whose probes inflate code size
// (perturbing inlining) and, when they profile the heap, record each
// requested identity strategy's 64-bit ID of every snapshot object before
// the profiling run — and the optimized build, which consumes ordering
// profiles.
package image

import (
	"fmt"

	"nimage/internal/core"
	"nimage/internal/graal"
	"nimage/internal/heap"
	"nimage/internal/ir"
	"nimage/internal/murmur"
	"nimage/internal/obs"
	"nimage/internal/obs/attrib"
	"nimage/internal/osim"
	"nimage/internal/profiler"
	"nimage/internal/vm"
)

// BuildKind discriminates the three builds of the methodology (Fig. 1).
type BuildKind uint8

const (
	// KindRegular is an unmodified Native-Image build.
	KindRegular BuildKind = iota
	// KindInstrumented is the profiling build: probes, plus object IDs
	// recorded for the profiling run under heap probes.
	KindInstrumented
	// KindOptimized is the profile-guided build consuming ordering
	// profiles (and PGO-boosted inlining).
	KindOptimized
)

func (k BuildKind) String() string {
	switch k {
	case KindRegular:
		return "regular"
	case KindInstrumented:
		return "instrumented"
	case KindOptimized:
		return "optimized"
	default:
		return "kind(?)"
	}
}

// Section names of the binary.
const (
	SectionText = ".text"
	SectionHeap = ".svm_heap"
)

// Options configures one image build.
type Options struct {
	Kind     BuildKind
	Compiler graal.Config
	// Instr selects the probes of an instrumented build.
	Instr graal.Instrumentation
	// Mode is the trace-buffer dump mode of an instrumented build.
	Mode profiler.DumpMode
	// BuildSeed drives build non-determinism: the pseudo-parallel class-
	// initializer execution order and the build-salt intrinsic (Sec. 2).
	BuildSeed uint64
	// CodeProfile is the CU ordering profile of an optimized build
	// (deduplicated method signatures in first-execution order).
	CodeProfile []string
	// HeapProfile is the object ordering profile of an optimized build
	// (deduplicated 64-bit IDs in first-access order).
	HeapProfile []uint64
	// HeapStrategy is the identity strategy that produced HeapProfile in
	// an optimized build.
	HeapStrategy core.HeapStrategy
	// MaxPaths bounds per-method path counts (path cutting).
	MaxPaths uint64
	// Obs, when non-nil, receives per-stage build spans (reachability,
	// inlining, clinit, layout, snapshot, serialization), output-size
	// gauges, and profile match statistics, all prefixed
	// "image.<kind>.". Nil disables instrumentation entirely.
	Obs *obs.Registry
}

// Image is a built binary plus the metadata needed to run and reorder it.
type Image struct {
	Program *ir.Program
	Opts    Options
	Comp    *graal.Compilation
	// Table indexes the compiled methods for the tracer and the
	// post-processing of an instrumented build; nil in every other build,
	// whose runs nothing traces.
	Table *profiler.MethodTable
	// Numberings numbers the paths of compiled methods on first use
	// (instrumented heap builds). Like the heap state below, it serves one
	// process at a time.
	Numberings *profiler.Numberings

	// Build-time heap state shared with runtime processes.
	Statics  *heap.Statics
	Interns  *heap.Interns
	Snapshot *heap.Snapshot

	// CULayout is the final .text layout (CUOffset gives each CU's file
	// offset).
	CULayout []*graal.CompilationUnit
	// cus holds each CU and its offset at the Method.ID of its root: the
	// one lookup the runtime hooks make per CU entry and per call. It is
	// as long as the largest root ID needs.
	cus []cuEntry

	// ObjLayout is the final .svm_heap layout; object offsets
	// (Snapshot.Offset) are relative to the section start.
	ObjLayout []*heap.Object

	// Hubs maps each reachable class to its metadata object in the heap.
	Hubs map[*ir.Class]*heap.Object
	// hubs holds the same hubs at their class's ID, for the allocation
	// hook; it is as long as the largest reachable class ID needs.
	hubs []*heap.Object

	// MetaBlobs maps each reachable class to its method-metadata blob —
	// kept so fault attribution can name these objects stably across
	// builds ("meta:Class") instead of by layout position.
	MetaBlobs map[*ir.Class]*heap.Object

	// StrategyIDs maps each identity strategy whose IDs a heap profiling
	// run recorded to the ID it assigns each snapshot object, indexed by
	// SeqID. It is nil for every image no heap profiling run used.
	StrategyIDs map[string][]uint64

	// CodeOrderStats / HeapMatchStats report profile-application quality
	// in optimized builds.
	CodeOrderStats core.CodeOrderResult
	HeapMatchStats core.MatchResult

	// NativeOff/NativeLen delimit the trailing region of .text holding the
	// natively compiled (statically linked) library code. Its methods are
	// not compiled by the simulated Graal, so the strategies neither
	// profile nor reorder them (the paper leaves them at the end of .text
	// too — see the Fig. 6 discussion); startup executes parts of this
	// region, faulting the same pages under every layout.
	NativeOff int64
	NativeLen int64

	TextSection osim.Section
	HeapSection osim.Section
	FileSize    int64

	attrIndex *attrib.Index
}

// Build constructs an image of the program.
func Build(p *ir.Program, opts Options) (*Image, error) { return build(p, opts, nil, nil) }

// checkBuildable rejects programs no image can be built from.
func checkBuildable(p *ir.Program) error {
	if !p.Resolved() {
		return fmt.Errorf("image: program %s not resolved", p.Name)
	}
	if p.Entry() == nil {
		return fmt.Errorf("image: program %s has no entry point", p.Name)
	}
	return nil
}

// build constructs an image of the program from reach, the program's
// reachability analysis under opts.Compiler, and scan, the method scan of
// reach; when reach is nil it runs both itself. The builds of one pipeline
// share one analysis and one scan: they depend only on the program and
// the compiler configuration, and they are read-only once computed.
func build(p *ir.Program, opts Options, reach *graal.Reachability, scan *graal.MethodScan) (*Image, error) {
	if err := checkBuildable(p); err != nil {
		return nil, err
	}
	instr := graal.InstrNone
	if opts.Kind == KindInstrumented {
		instr = opts.Instr
	}
	r := opts.Obs
	prefix := ""
	if r.Enabled() {
		prefix = "image." + opts.Kind.String() + "."
	}

	if reach == nil {
		sp := r.StartSpan(prefix + "reachability")
		reach = graal.Analyze(p, opts.Compiler)
		sp.End()
	}
	sp := r.StartSpan(prefix + "inlining")
	if scan == nil {
		scan = graal.ScanMethods(reach)
	}
	img := &Image{
		Program: p,
		Opts:    opts,
		Comp:    graal.Assemble(p, opts.Compiler, instr, opts.Kind == KindOptimized, reach, scan),
	}
	if opts.Kind == KindInstrumented {
		img.Table = profiler.NewMethodTable(img.Comp.Reach.CompiledMethods())
		if opts.Instr == graal.InstrHeap {
			img.Numberings = img.Table.Numberings(opts.MaxPaths)
		}
	}
	maxID := 0
	for _, cu := range img.Comp.CUs {
		maxID = max(maxID, cu.Root.ID)
	}
	img.cus = make([]cuEntry, maxID+1)
	for _, cu := range img.Comp.CUs {
		img.cus[cu.Root.ID] = cuEntry{cu: cu}
	}
	sp.End()

	sp = r.StartSpan(prefix + "clinit")
	err := img.runClassInitializers()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("image: build-time initialization of %s: %w", p.Name, err)
	}
	sp = r.StartSpan(prefix + "layout_text")
	img.layoutText()
	sp.End()
	sp = r.StartSpan(prefix + "snapshot_heap")
	err = img.snapshotHeap()
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = r.StartSpan(prefix + "layout_heap")
	img.layoutHeap()
	sp.End()
	sp = r.StartSpan(prefix + "serialize")
	img.finalizeFile()
	sp.End()
	if r.Enabled() {
		img.recordBuildObs(r, prefix)
	}
	return img, nil
}

// recordBuildObs publishes output sizes and profile match statistics of a
// completed build under the "image.<kind>." prefix.
func (img *Image) recordBuildObs(r *obs.Registry, prefix string) {
	r.Gauge(prefix + "text_bytes").Set(float64(img.TextSection.Len))
	r.Gauge(prefix + "heap_bytes").Set(float64(img.HeapSection.Len))
	r.Gauge(prefix + "file_bytes").Set(float64(img.FileSize))
	r.Gauge(prefix + "cus").Set(float64(len(img.CULayout)))
	r.Gauge(prefix + "objects").Set(float64(len(img.ObjLayout)))
	if img.Opts.Kind != KindOptimized {
		return
	}
	if len(img.Opts.CodeProfile) > 0 {
		r.Gauge(prefix + "code_matched_cus").Set(float64(img.CodeOrderStats.Matched))
		r.Gauge(prefix + "code_profile_len").Set(float64(img.CodeOrderStats.ProfileLen))
	}
	if img.Opts.HeapStrategy != nil && len(img.Opts.HeapProfile) > 0 {
		hm := img.HeapMatchStats
		r.Gauge(prefix + "heap_matched_objects").Set(float64(hm.MatchedObjects))
		r.Gauge(prefix + "heap_unmatched_objects").Set(float64(hm.UnmatchedObjects))
		r.Gauge(prefix + "heap_collision_groups").Set(float64(hm.CollisionGroups))
		r.Gauge(prefix + "heap_collision_objects").Set(float64(hm.CollisionObjects))
		r.Gauge(prefix + "heap_match_rate").Set(hm.MatchRate())
	}
}

// buildMachine creates the build-time execution machine sharing the image
// heap state.
func (img *Image) buildMachine() *vm.Machine {
	m := vm.New(img.Program)
	m.BuildSalt = img.Opts.BuildSeed
	img.Statics = m.Statics
	img.Interns = m.Interns
	return m
}

// runClassInitializers executes the clinits of reachable classes at build
// time. Class initializers may run in parallel in Native Image (Sec. 2);
// the simulator models the resulting non-determinism as a build-seeded
// shuffle of the execution order.
func (img *Image) runClassInitializers() error {
	m := img.buildMachine()
	m.AutoClinit = true
	classes := make([]*ir.Class, len(img.Comp.Reach.ClassOrder))
	copy(classes, img.Comp.Reach.ClassOrder)
	perturb(classes, img.Opts.BuildSeed)
	for _, c := range classes {
		if err := m.RunClassInit(c); err != nil {
			return fmt.Errorf("initializing %s: %w", c.Name, err)
		}
	}
	return nil
}

// perturb applies a *localized* deterministic permutation: each element
// may swap with a neighbour up to `window` positions away. This models the
// non-determinism of pseudo-parallel class initialization (Sec. 2): racing
// initializers finish in slightly different orders across builds, but the
// overall order stays roughly stable — which is why per-type incremental
// IDs still match many (but not all) objects across builds (Sec. 7.2).
func perturb[T any](s []T, seed uint64) {
	const window = 3
	var buf [8]byte
	for i := len(s) - 1; i > 0; i-- {
		buf[0], buf[1], buf[2], buf[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		buf[4], buf[5], buf[6], buf[7] = byte(seed), byte(seed>>8), byte(seed>>16), byte(seed>>24)
		h := murmur.Sum64Seed(buf[:], seed)
		if h%3 != 0 {
			continue // most classes keep their relative position
		}
		w := i
		if w > window {
			w = window
		}
		j := i - int((h>>8)%uint64(w+1))
		s[i], s[j] = s[j], s[i]
	}
}

// layoutText orders the CUs — default alphabetical, or by the code profile
// in optimized builds — and assigns absolute file offsets. The .text
// section starts after one header page.
func (img *Image) layoutText() {
	if img.Opts.Kind == KindOptimized && len(img.Opts.CodeProfile) > 0 {
		img.CodeOrderStats = core.OrderCUs(img.Comp.CUs, img.Opts.CodeProfile)
		img.CULayout = img.CodeOrderStats.Order
	} else {
		img.CULayout = img.Comp.CUs
	}
	off := int64(osim.PageSize) // header page
	img.TextSection = osim.Section{Name: SectionText, Off: off}
	for _, cu := range img.CULayout {
		img.cus[cu.Root.ID].off = off
		off += (int64(cu.Size) + 15) / 16 * 16
	}
	// Statically linked native code follows the compiled CUs, page-aligned
	// as the linker would place a separate input section.
	off = pageAlign(off)
	img.NativeOff = off
	img.NativeLen = nativeCodeSize(len(img.Program.Classes))
	off += img.NativeLen
	img.TextSection.Len = off - img.TextSection.Off
}

// nativeCodeSize sizes the native-library region from the program's class
// count (statically linked libc/zlib/... scale roughly with the runtime on
// the classpath). The size is a build-invariant property of the program,
// so the native region is identical across regular, instrumented, and
// optimized builds.
func nativeCodeSize(classes int) int64 {
	n := int64(64*1024) + int64(classes)*1280
	return (n + osim.PageSize - 1) / osim.PageSize * osim.PageSize
}

// snapshotHeap collects the heap roots in a well-defined order and
// traverses the object graph (Sec. 2):
//
//  1. per reachable class, in the seeded class order: the class's hub
//     object and method-metadata blob (DataSection) followed by its static
//     fields — hubs and metadata interleave with class data exactly as the
//     encounter-order traversal of a real image produces, so the objects a
//     run accesses are scattered across the whole section (Sec. 7.2 notes
//     that metadata dominates the snapshot);
//  2. code constants, in alphabetical CU order (the analysis order, which
//     is the same for every build of the program), skipping constants
//     folded away by optimization;
//  3. strings interned during class initialization (InternedString);
//  4. embedded resources (Resource).
func (img *Image) snapshotHeap() error {
	var roots []heap.RootRef
	// 1. Per-class metadata and statics.
	classes := make([]*ir.Class, len(img.Comp.Reach.ClassOrder))
	copy(classes, img.Comp.Reach.ClassOrder)
	perturb(classes, img.Opts.BuildSeed+1)
	img.Hubs = make(map[*ir.Class]*heap.Object, len(classes))
	img.MetaBlobs = make(map[*ir.Class]*heap.Object, len(classes))
	maxID := 0
	for _, c := range classes {
		maxID = max(maxID, c.ID)
	}
	img.hubs = make([]*heap.Object, maxID+1)
	for _, c := range classes {
		hub := heap.NewByteArray(64 + 16*len(c.AllFields) + 8*len(c.Methods))
		img.Hubs[c] = hub
		img.hubs[c.ID] = hub
		roots = append(roots, heap.RootRef{Obj: hub, Reason: heap.ReasonDataSection})
		meta := heap.NewByteArray(metaBlobSize(c))
		img.MetaBlobs[c] = meta
		roots = append(roots, heap.RootRef{Obj: meta, Reason: heap.ReasonDataSection})
		for _, f := range c.Statics {
			v := img.Statics.Get(f)
			if v.Kind == heap.VRef && v.Ref != nil {
				roots = append(roots, heap.RootRef{Obj: v.Ref, Reason: f.Signature()})
			}
		}
	}
	// 2. Code constants (alphabetical CU order, stable across builds).
	for _, cu := range img.Comp.CUs {
		for _, c := range cu.Constants {
			if c.Folded {
				continue
			}
			roots = append(roots, heap.RootRef{
				Obj:    img.Interns.Intern(c.Literal),
				Reason: c.Source.Signature(),
			})
		}
	}
	// 3. Interned strings created during initialization.
	for _, s := range img.Interns.All() {
		roots = append(roots, heap.RootRef{Obj: s, Reason: heap.ReasonInternedString})
	}
	// 4. Resources.
	for _, r := range img.Program.Resources {
		roots = append(roots, heap.RootRef{Obj: heap.NewByteArray(r.Size), Reason: heap.ReasonResource})
	}
	img.Snapshot = heap.BuildSnapshot(roots)
	return nil
}

// metaBlobSize sizes a class's method-metadata blob from its code size.
func metaBlobSize(c *ir.Class) int {
	s := 48
	for _, m := range c.Methods {
		s += 24 + m.CodeSize()/2
	}
	return s
}

// layoutHeap orders the snapshot objects — default encounter order, or by
// the heap profile in optimized builds — and assigns section-relative
// offsets.
func (img *Image) layoutHeap() {
	if img.Opts.Kind == KindOptimized && len(img.Opts.HeapProfile) > 0 && img.Opts.HeapStrategy != nil {
		ids := img.Opts.HeapStrategy.AssignIDs(img.Snapshot)
		img.HeapMatchStats = core.OrderObjects(img.Snapshot.Objects, ids, img.Opts.HeapProfile)
		img.ObjLayout = img.HeapMatchStats.Order
	} else {
		img.ObjLayout = img.Snapshot.Objects
	}
	img.Snapshot.Layout(img.ObjLayout)
}

// finalizeFile computes the section table and total file size.
func (img *Image) finalizeFile() {
	heapOff := pageAlign(img.TextSection.Off + img.TextSection.Len)
	var heapLen int64
	for _, o := range img.ObjLayout {
		if end := img.Snapshot.Offset(o) + img.Snapshot.Size(o); end > heapLen {
			heapLen = end
		}
	}
	img.HeapSection = osim.Section{Name: SectionHeap, Off: heapOff, Len: heapLen}
	img.FileSize = pageAlign(heapOff + heapLen)
	if img.FileSize == heapOff {
		img.FileSize += osim.PageSize
	}
}

// recordIDs computes each given identity strategy's ID of every snapshot
// object, which the optimizing build matches trace entries by. It must
// run before any process mutates snapshot objects (which would change
// structural hashes).
func (img *Image) recordIDs(strategies []core.HeapStrategy) {
	img.StrategyIDs = make(map[string][]uint64, len(strategies))
	for _, s := range strategies {
		ids := s.AssignIDs(img.Snapshot)
		bySeq := make([]uint64, len(img.Snapshot.Objects))
		for k, o := range img.Snapshot.Objects {
			bySeq[k] = ids[o]
		}
		img.StrategyIDs[s.Name()] = bySeq
	}
}

// ObjectHandle returns the per-build handle the instrumentation records for
// an object: SeqID+1 for snapshot objects, 0 otherwise.
func (img *Image) ObjectHandle(o *heap.Object) uint64 {
	if o == nil {
		return 0
	}
	return uint64(o.SeqID() + 1)
}

// StrategyIDOfHandle translates a recorded handle to the given strategy's
// 64-bit object ID (postproc profile translation). Only strategies whose
// IDs were recorded translate.
func (img *Image) StrategyIDOfHandle(strategy string, handle uint64) (uint64, bool) {
	ids := img.StrategyIDs[strategy]
	if handle == 0 || handle > uint64(len(ids)) {
		return 0, false
	}
	return ids[handle-1], true
}

// cuEntry is a compilation unit and its absolute file offset.
type cuEntry struct {
	cu  *graal.CompilationUnit
	off int64
}

// cuAt returns the entry of the CU rooted at m; its cu is nil when m roots
// none.
func (img *Image) cuAt(m *ir.Method) cuEntry {
	if m.ID < len(img.cus) {
		return img.cus[m.ID]
	}
	return cuEntry{}
}

// CUOf returns the compilation unit rooted at m, or nil.
func (img *Image) CUOf(m *ir.Method) *graal.CompilationUnit { return img.cuAt(m).cu }

// CUOffset returns the absolute file offset of cu in the .text layout.
func (img *Image) CUOffset(cu *graal.CompilationUnit) int64 { return img.cuAt(cu.Root).off }

// TextSize returns the .text payload size in bytes.
func (img *Image) TextSize() int64 { return img.TextSection.Len }

// HeapSize returns the .svm_heap payload size in bytes.
func (img *Image) HeapSize() int64 { return img.HeapSection.Len }

func pageAlign(v int64) int64 {
	return (v + osim.PageSize - 1) / osim.PageSize * osim.PageSize
}
