package image

import (
	"strconv"

	"nimage/internal/heap"
	"nimage/internal/obs/affinity"
	"nimage/internal/obs/attrib"
	"nimage/internal/osim"
)

// Attribution symbol names for the image regions that aren't CUs or
// snapshot objects.
const (
	SymbolHeader = "<header>"
	SymbolNative = "<native>"
)

// AttributionIndex returns (building and caching on first use) the
// page-fault attribution index of the image: one symbol per byte range a
// fault can be blamed on — the header page, every compiled CU, the native
// code tail, and every snapshot object.
//
// Symbol names are chosen to be stable across builds and layouts so that
// attribution tables from different images of the same program diff by
// name: CUs use their root method's signature, class metadata objects use
// "hub:Class" / "meta:Class", and every other object uses a per-type
// ordinal ("Type#3") counted in snapshot encounter order — the order the
// build's heap traversal discovered the objects, which the localized
// build-seed perturbation keeps mostly stable (Sec. 7.2).
func (img *Image) AttributionIndex() *attrib.Index {
	if img.attrIndex != nil {
		return img.attrIndex
	}
	syms := make([]attrib.Symbol, 0, len(img.CULayout)+len(img.ObjLayout)+2)
	syms = append(syms, attrib.Symbol{
		Name: SymbolHeader, Kind: attrib.KindHeader, Off: 0, Len: osim.PageSize,
	})
	for _, cu := range img.CULayout {
		syms = append(syms, attrib.Symbol{
			Name:    cu.Root.Signature(),
			Type:    cu.Root.Class.Name,
			Kind:    attrib.KindCU,
			Section: SectionText,
			Off:     img.CUOffset(cu),
			Len:     int64(cu.Size),
		})
	}
	if img.NativeLen > 0 {
		syms = append(syms, attrib.Symbol{
			Name: SymbolNative, Kind: attrib.KindNative, Section: SectionText,
			Off: img.NativeOff, Len: img.NativeLen,
		})
	}
	names, types := img.objectNames()
	for _, o := range img.ObjLayout {
		k := o.SeqID()
		syms = append(syms, attrib.Symbol{
			Name:    names[k],
			Type:    types[k],
			Kind:    attrib.KindObject,
			Section: SectionHeap,
			Off:     img.HeapSection.Off + img.Snapshot.Offset(o),
			Len:     img.Snapshot.Size(o),
		})
	}
	img.attrIndex = attrib.NewIndex(img.FileSize,
		[]osim.Section{img.TextSection, img.HeapSection}, syms)
	return img.attrIndex
}

// ObjectNames returns the build-stable attribution name of every snapshot
// object ("hub:Class", "meta:Class", "Type#k"); the equivalence verifier
// names diverging objects with them.
func (img *Image) ObjectNames() map[*heap.Object]string {
	names, _ := img.objectNames()
	m := make(map[*heap.Object]string, len(names))
	for k, o := range img.Snapshot.Objects {
		m[o] = names[k]
	}
	return m
}

// objectNames assigns every snapshot object its build-stable attribution
// name and returns the names and the objects' type names, both indexed
// by SeqID. Ordinals are counted over img.Snapshot.Objects (encounter
// order), not the layout order, so reordering the section does not rename
// objects.
func (img *Image) objectNames() (names, types []string) {
	objs := img.Snapshot.Objects
	names = make([]string, len(objs))
	types = make([]string, len(objs))
	for c, hub := range img.Hubs {
		names[hub.SeqID()] = "hub:" + c.Name
	}
	for c, meta := range img.MetaBlobs {
		names[meta.SeqID()] = "meta:" + c.Name
	}
	ordinals := make(map[string]int)
	var buf []byte
	for k, o := range objs {
		tn := o.TypeName()
		types[k] = tn
		if names[k] != "" {
			continue
		}
		buf = append(append(buf[:0], tn...), '#')
		buf = strconv.AppendInt(buf, int64(ordinals[tn]), 10)
		names[k] = string(buf)
		ordinals[tn]++
	}
	return names, types
}

// AttributionTable returns the per-symbol fault attribution of the
// process's run, with fault-around waste folded in from the mapping's
// final page states. Nil when the process was started without attribution
// (no obs registry and OS.AttributeFaults unset).
func (p *Process) AttributionTable() *attrib.Table {
	if p.Attrib == nil {
		return nil
	}
	p.Attrib.Finish(p.Mapping.PageClasses())
	t := p.Attrib.Table()
	t.Workload = p.Img.Program.Name
	return t
}

// AffinityGraph returns the temporal co-access affinity graph of the
// process's run. Nil when the process was started without affinity
// tracking (no obs registry and OS.TrackAffinity unset). The caller
// fills Layout (the image does not know its strategy's name).
func (p *Process) AffinityGraph() *affinity.Graph {
	if p.Affinity == nil {
		return nil
	}
	g := p.Affinity.Graph()
	g.Workload = p.Img.Program.Name
	return g
}
