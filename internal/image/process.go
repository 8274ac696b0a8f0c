package image

import (
	"encoding/binary"
	"fmt"
	"time"

	"nimage/internal/heap"
	"nimage/internal/ir"
	"nimage/internal/murmur"
	"nimage/internal/obs"
	"nimage/internal/obs/affinity"
	"nimage/internal/obs/attrib"
	"nimage/internal/osim"
	"nimage/internal/vm"
)

// File returns (creating on first use) the on-disk representation of the
// image under the given OS's page cache. The OS keeps the lookup, keyed by
// the image, so an image holds no reference to the OSes it ran on.
func (img *Image) File(o *osim.OS) (*osim.File, error) {
	return o.FileFor(img, img.Program.Name+".bin", img.FileSize, []osim.Section{
		img.TextSection, img.HeapSection,
	})
}

// Process is one execution of the image: a fresh memory mapping over the
// (possibly warm) page cache, an interpreter wired to touch the mapped
// pages exactly where the layout put the code and objects, and a mutation
// journal so the image state is pristine again after Close.
type Process struct {
	Img     *Image
	Machine *vm.Machine
	Mapping *osim.Mapping

	// Attrib, when non-nil, is the per-fault attribution recorder observing
	// the mapping (attached when the OS has an obs registry or sets
	// AttributeFaults). Read results via AttributionTable.
	Attrib *attrib.Recorder

	// Affinity, when non-nil, is the temporal co-access recorder observing
	// the mapping's page-event stream (attached when the OS has an obs
	// registry or sets TrackAffinity). Read results via AffinityGraph.
	Affinity *affinity.Recorder

	// AccessedObjects counts distinct snapshot objects touched (Sec. 7.2
	// reports that AWFY accesses ~4% of them).
	AccessedObjects int

	// accessed marks the touched snapshot objects by SeqID, which
	// BuildSnapshot assigns as the object's index in Snapshot.Objects.
	accessed []bool
	obs      *obs.Registry
	closed   bool
}

// NewProcess starts a process over the image. extra hooks (e.g. a tracing
// profiler's) are composed with the image's own page-touching hooks.
func (img *Image) NewProcess(o *osim.OS, extra vm.Hooks) (*Process, error) {
	f, err := img.File(o)
	if err != nil {
		return nil, err
	}
	p := &Process{
		Img:      img,
		Mapping:  f.Map(),
		accessed: make([]bool, len(img.Snapshot.Objects)),
		obs:      o.Obs,
	}
	m := vm.New(img.Program)
	// Share the build-time heap state: the snapshot objects ARE the
	// mapped .svm_heap contents.
	m.Statics = img.Statics
	m.Interns = img.Interns
	m.BuildSalt = img.Opts.BuildSeed
	m.Obs = o.Obs
	m.EnableJournal(img.Snapshot)
	m.Hooks = vm.ComposeHooks(p.hooks(), extra)
	p.Machine = m

	// Attach the recorders before the first touch below, so the header
	// and native startup faults are attributed too.
	if o.Obs.Enabled() || o.AttributeFaults {
		p.Attrib = attrib.NewRecorder(img.AttributionIndex())
		p.Mapping.Observe(p.Attrib)
	}
	if o.Obs.Enabled() || o.TrackAffinity {
		p.Affinity = affinity.NewRecorder(img.AttributionIndex(), affinity.Config{})
		p.Mapping.Observe(p.Affinity)
	}

	// Program startup maps the binary, reads the header page, and runs the
	// native startup code (libc init, ELF entry): a fixed pseudo-random
	// third of the native region's pages fault, independent of the CU and
	// heap layout — these are the unprofiled methods at the end of .text
	// in Fig. 6 that the strategies cannot reorder.
	p.Mapping.Touch(0)
	nativePages := img.NativeLen / osim.PageSize
	for i := int64(0); i < nativePages/2; i++ {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(i))
		page := int64(murmur.Sum64Seed(buf[:], uint64(len(img.Program.Name))) % uint64(nativePages))
		p.Mapping.Touch(img.NativeOff + page*osim.PageSize)
	}
	return p, nil
}

// hooks wires the interpreter's events to page touches.
func (p *Process) hooks() vm.Hooks {
	img, snap := p.Img, p.Img.Snapshot
	return vm.Hooks{
		InlineOf: func(ctx, callee *ir.Method) bool {
			cu := img.cuAt(ctx).cu
			return cu != nil && cu.Contains(callee)
		},
		OnEnterCU: func(tid int, root *ir.Method) {
			if e := img.cuAt(root); e.cu != nil {
				p.Mapping.TouchRange(e.off, int64(e.cu.Size))
			}
		},
		OnSnapshotAccess: func(tid int, o *heap.Object, instr bool) {
			if k := o.SeqID(); !p.accessed[k] {
				p.accessed[k] = true
				p.AccessedObjects++
			}
			p.Mapping.TouchRange(img.HeapSection.Off+snap.Offset(o), snap.Size(o))
		},
		OnNew: func(tid int, c *ir.Class) {
			if c.ID >= len(img.hubs) || img.hubs[c.ID] == nil {
				return
			}
			hub := img.hubs[c.ID]
			p.Mapping.TouchRange(img.HeapSection.Off+snap.Offset(hub), snap.Size(hub))
		},
	}
}

// Run executes the program to completion (or first response when the
// machine is configured with StopOnRespond).
func (p *Process) Run(args ...int64) error {
	if p.closed {
		return fmt.Errorf("image: process already closed")
	}
	return p.Machine.RunProgram(args...)
}

// Stats summarizes one finished run.
type Stats struct {
	// TextFaults / HeapFaults are page faults attributed to the sections.
	TextFaults osim.SectionFaults
	HeapFaults osim.SectionFaults
	// TotalFaults counts all page faults of the mapping.
	TotalFaults int64
	// CPUTime is the simulated compute time; IOTime the simulated device
	// time; Total their sum (end-to-end execution time, Sec. 7.3).
	CPUTime time.Duration
	IOTime  time.Duration
	Total   time.Duration
	// TimeToResponse is the elapsed time until the first response for
	// microservice workloads (0 when the workload never responded).
	TimeToResponse time.Duration
	// Judged is the time the run is judged by: TimeToResponse when the
	// program responded, Total otherwise.
	Judged time.Duration
	// AccessedObjects / SnapshotObjects give the accessed fraction.
	AccessedObjects int
	SnapshotObjects int
}

// Stats returns the measurements of the run so far.
func (p *Process) Stats() Stats {
	cpu := time.Duration(p.Machine.SimTimeNanos())
	io := p.Mapping.IOTime
	st := Stats{
		TextFaults:      p.Mapping.SectionFaults(SectionText),
		HeapFaults:      p.Mapping.SectionFaults(SectionHeap),
		TotalFaults:     p.Mapping.Faults,
		CPUTime:         cpu,
		IOTime:          io,
		Total:           cpu + io,
		Judged:          cpu + io,
		AccessedObjects: p.AccessedObjects,
		SnapshotObjects: len(p.Img.Snapshot.Objects),
	}
	if p.Machine.Responded {
		// I/O is interleaved with compute before the response; all faults
		// up to the response contribute. The respond point is measured in
		// CPU time; the mapping's I/O up to then is approximated by the
		// full I/O time of the (killed-at-response) run.
		st.TimeToResponse = time.Duration(p.Machine.RespondTimeNanos()) + io
		st.Judged = st.TimeToResponse
	}
	return st
}

// Close rolls back every mutation the run applied to the image heap, so
// the image can be executed again from pristine state (the next benchmark
// iteration's fresh process).
func (p *Process) Close() {
	if p.closed {
		return
	}
	p.closed = true
	if p.Attrib != nil {
		p.Attrib.Finish(p.Mapping.PageClasses())
	}
	if p.Affinity != nil {
		p.Affinity.Finish()
	}
	if r := p.obs; r.Enabled() {
		st := p.Stats()
		r.Gauge("run.cpu_nanos").Set(float64(st.CPUTime.Nanoseconds()))
		r.Gauge("run.io_nanos").Set(float64(st.IOTime.Nanoseconds()))
		r.Gauge("run.total_nanos").Set(float64(st.Total.Nanoseconds()))
		r.Gauge("run.time_to_response_nanos").Set(float64(st.TimeToResponse.Nanoseconds()))
		r.Gauge("run.total_faults").Set(float64(st.TotalFaults))
		r.Gauge("run.accessed_objects").Set(float64(st.AccessedObjects))
		r.Gauge("run.snapshot_objects").Set(float64(st.SnapshotObjects))
	}
	p.Machine.Rollback()
	// munmap: later cache evictions (or the next iteration's DropCaches)
	// must not walk this dead process's page table or observers.
	p.Mapping.Release()
}
