package profiler

import (
	"sort"

	"nimage/internal/ir"
)

// MethodTable assigns stable indices to compiled methods. Indices are
// alphabetical by signature, so the table is identical for any two builds
// with the same reachable-method set, and trace files reference methods
// compactly.
type MethodTable struct {
	// Methods in index order.
	Methods []*ir.Method
	// Index maps a method to its table index.
	Index map[*ir.Method]int
}

// NewMethodTable builds a table over the given methods.
func NewMethodTable(methods []*ir.Method) *MethodTable {
	sorted := make([]*ir.Method, len(methods))
	copy(sorted, methods)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Signature() < sorted[j].Signature() })
	t := &MethodTable{Methods: sorted, Index: make(map[*ir.Method]int, len(sorted))}
	for i, m := range sorted {
		t.Index[m] = i
	}
	return t
}

// Signature returns the signature of the method with the given index, or
// "" if out of range.
func (t *MethodTable) Signature(idx int) string {
	if idx < 0 || idx >= len(t.Methods) {
		return ""
	}
	return t.Methods[idx].Signature()
}

// Method returns the method with the given index, or nil.
func (t *MethodTable) Method(idx int) *ir.Method {
	if idx < 0 || idx >= len(t.Methods) {
		return nil
	}
	return t.Methods[idx]
}

// Numberings memoizes the path numberings of a table's methods: each
// method is numbered on its first lookup, so a profiling run numbers only
// the methods it enters. A numbering is a pure function of the method and
// maxPaths, which makes lazy numbering give the same traces and profiles
// as numbering every method up front. A memo is not safe for concurrent
// use; like the heap state of the image that owns it, it serves one
// process at a time.
type Numberings struct {
	table    *MethodTable
	maxPaths uint64
	memo     []*Numbering // by table index
}

// Numberings returns an empty numbering memo over the table's methods
// (used by heap-instrumented builds).
func (t *MethodTable) Numberings(maxPaths uint64) *Numberings {
	return &Numberings{table: t, maxPaths: maxPaths, memo: make([]*Numbering, len(t.Methods))}
}

// Of returns the path numbering of m, computing it on first use. It
// returns nil for methods outside the table and for a nil memo.
func (n *Numberings) Of(m *ir.Method) *Numbering {
	if n == nil {
		return nil
	}
	i, ok := n.table.Index[m]
	if !ok {
		return nil
	}
	nb := n.memo[i]
	if nb == nil {
		nb = ComputeNumbering(m, n.maxPaths)
		n.memo[i] = nb
	}
	return nb
}

// Computed returns the numberings computed so far, in table order.
func (n *Numberings) Computed() []*Numbering {
	var out []*Numbering
	for _, nb := range n.memo {
		if nb != nil {
			out = append(out, nb)
		}
	}
	return out
}
