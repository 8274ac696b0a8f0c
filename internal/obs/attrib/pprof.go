package attrib

// pprof export: the attribution table serialized in the pprof
// profile.proto wire format, so `go tool pprof` (top/peek/web/diff) works
// on simulated page-fault profiles. The encoder writes the protobuf by
// hand — the toolchain deliberately has no dependencies — and pprof_decode
// in this file parses the same subset back for the golden-file tests.
//
// Shape: one sample per faulted symbol with the location stack
// symbol → type → section (leaf first), sample values
// [faults, major_faults, io nanoseconds], and labels carrying the symbol
// kind, first-fault ordinal, and fault-around waste bytes.

import (
	"compress/gzip"
	"fmt"
	"io"
)

// Sample type names/units of the exported profile.
const (
	sampleFaults = "faults"
	sampleMajor  = "major_faults"
	sampleIO     = "io"
)

// protoBuf is a minimal protobuf wire-format writer.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *protoBuf) tag(field, wire int) { p.varint(uint64(field)<<3 | uint64(wire)) }

// intField emits a varint-encoded int64 field (skipping zero, as proto3
// encoders do).
func (p *protoBuf) intField(field int, v int64) {
	if v == 0 {
		return
	}
	p.tag(field, 0)
	p.varint(uint64(v))
}

func (p *protoBuf) boolField(field int, v bool) {
	if v {
		p.tag(field, 0)
		p.varint(1)
	}
}

func (p *protoBuf) msgField(field int, m *protoBuf) {
	p.tag(field, 2)
	p.varint(uint64(len(m.b)))
	p.b = append(p.b, m.b...)
}

// packedInts emits a packed repeated varint field.
func (p *protoBuf) packedInts(field int, vs []int64) {
	if len(vs) == 0 {
		return
	}
	var body protoBuf
	for _, v := range vs {
		body.varint(uint64(v))
	}
	p.tag(field, 2)
	p.varint(uint64(len(body.b)))
	p.b = append(p.b, body.b...)
}

// strtab interns strings into the profile string table (index 0 = "").
type strtab struct {
	idx map[string]int64
	tab []string
}

func newStrtab() *strtab {
	return &strtab{idx: map[string]int64{"": 0}, tab: []string{""}}
}

func (s *strtab) id(v string) int64 {
	if i, ok := s.idx[v]; ok {
		return i
	}
	i := int64(len(s.tab))
	s.idx[v] = i
	s.tab = append(s.tab, v)
	return i
}

// WritePprof writes the table as a gzipped pprof protobuf profile.
func WritePprof(w io.Writer, t *Table) error {
	var prof protoBuf
	st := newStrtab()

	valueType := func(typ, unit string) *protoBuf {
		var vt protoBuf
		vt.intField(1, st.id(typ))
		vt.intField(2, st.id(unit))
		return &vt
	}
	prof.msgField(1, valueType(sampleFaults, "count"))
	prof.msgField(1, valueType(sampleMajor, "count"))
	prof.msgField(1, valueType(sampleIO, "nanoseconds"))

	// One mapping covering the image file.
	filename := t.Workload + ".bin"
	var mp protoBuf
	mp.intField(1, 1) // id
	mp.intField(3, t.FileSize)
	mp.intField(5, st.id(filename))
	mp.boolField(7, true) // has_functions

	// Functions and locations: one function per distinct frame name, one
	// location per function (addresses identify the leaf symbols).
	funcID := map[string]int64{}
	locID := map[string]int64{}
	var funcs, locs []*protoBuf
	locOf := func(name string, addr int64) int64 {
		if id, ok := locID[name]; ok {
			return id
		}
		fid, ok := funcID[name]
		if !ok {
			fid = int64(len(funcs) + 1)
			funcID[name] = fid
			var fn protoBuf
			fn.intField(1, fid)
			fn.intField(2, st.id(name))
			fn.intField(3, st.id(name))
			fn.intField(4, st.id(filename))
			funcs = append(funcs, &fn)
		}
		id := int64(len(locs) + 1)
		locID[name] = id
		var line protoBuf
		line.intField(1, fid)
		var loc protoBuf
		loc.intField(1, id)
		loc.intField(2, 1) // mapping_id
		loc.intField(3, addr)
		loc.msgField(4, &line)
		locs = append(locs, &loc)
		return id
	}

	numLabel := func(key string, v int64, unit string) *protoBuf {
		var lb protoBuf
		lb.intField(1, st.id(key))
		lb.intField(3, v)
		if unit != "" {
			lb.intField(4, st.id(unit))
		}
		return &lb
	}

	var samples []*protoBuf
	for _, s := range t.Symbols {
		if s.Faults == 0 {
			continue
		}
		stack := []int64{locOf(s.Name, s.Off)}
		if s.Type != "" && s.Type != s.Name {
			stack = append(stack, locOf(s.Type, 0))
		}
		if s.Section != "" {
			stack = append(stack, locOf(s.Section, 0))
		}
		var sm protoBuf
		sm.packedInts(1, stack)
		sm.packedInts(2, []int64{s.Faults, s.Major, s.IONanos})
		var kind protoBuf
		kind.intField(1, st.id("kind"))
		kind.intField(2, st.id(s.Kind))
		sm.msgField(3, &kind)
		if s.FirstOrdinal > 0 {
			sm.msgField(3, numLabel("first_fault_ordinal", s.FirstOrdinal, ""))
		}
		if s.ResidentUnusedBytes > 0 {
			sm.msgField(3, numLabel("resident_unused", s.ResidentUnusedBytes, "bytes"))
		}
		samples = append(samples, &sm)
	}
	for _, sm := range samples {
		prof.msgField(2, sm)
	}
	prof.msgField(3, &mp)
	for _, loc := range locs {
		prof.msgField(4, loc)
	}
	for _, fn := range funcs {
		prof.msgField(5, fn)
	}
	// period_type faults/count, period 1: one fault per sampled fault.
	prof.msgField(11, valueType(sampleFaults, "count"))
	prof.intField(12, 1)
	if t.Layout != "" {
		prof.intField(13, st.id("layout: "+t.Layout))
	}
	// The string table goes last: every id() call above must have interned
	// its string before the table is frozen, or indices would dangle.
	for _, s := range st.tab {
		// Entries are written even when empty: index 0 must exist on the
		// wire for strict parsers.
		prof.tag(6, 2)
		prof.varint(uint64(len(s)))
		prof.b = append(prof.b, s...)
	}

	gz := gzip.NewWriter(w)
	if _, err := gz.Write(prof.b); err != nil {
		return fmt.Errorf("attrib: writing pprof profile: %w", err)
	}
	return gz.Close()
}
