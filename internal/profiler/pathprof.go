// Package profiler implements the paper's tracing profiler (Sec. 6.1).
//
// The profiler instruments at the compiler-IR level using an accurate
// path-profiling technique with the path-cutting optimization [7]: each
// method's CFG is numbered Ball–Larus-style after cutting loop back edges
// (and, when the path count would explode, additional capacity-cut edges),
// so every executed acyclic sub-path maps to a compact integer ID. Instead
// of counting path executions, the tracer *records* the executed path IDs —
// together with the identifiers of the heap objects accessed on the path —
// into per-thread buffers, with two dump modes: dump-on-full for normally
// terminating workloads and memory-mapped files for workloads killed with
// SIGKILL (Sec. 6.1).
package profiler

import (
	"fmt"
	"sort"

	"nimage/internal/ir"
)

// DefaultMaxPaths bounds the number of paths per start block before
// capacity cuts are inserted (the path-cutting optimization of [7]).
const DefaultMaxPaths = 1 << 16

// edge is a CFG edge (from-block, to-block).
type edge struct{ from, to int }

// Numbering is the Ball–Larus path numbering of one method.
type Numbering struct {
	Method *ir.Method
	// cut marks path-terminating edges: loop back edges plus capacity cuts.
	cut map[edge]bool
	// inc is the increment assigned to each non-cut edge.
	inc map[edge]uint64
	// numPaths[v] is the number of distinct paths starting at block v (and
	// ending at a return or a cut edge source).
	numPaths []uint64
	// endsHere[v] is 1 when a path may terminate at v (return block or a
	// block with a cut out-edge).
	endsHere []uint64
	// startBase[s] is the offset of start block s in the method's path-ID
	// space; only entry blocks of paths (block 0 and cut-edge targets) have
	// entries.
	startBase map[int]uint64
	// starts lists the start blocks in ascending order.
	starts []int
	// TotalPaths is the size of the method's path-ID space.
	TotalPaths uint64
	// AccessCounts[v] is the number of traced access instructions
	// (field/array accesses) in block v.
	AccessCounts []int
}

// successors returns the CFG successors of a block.
func successors(b *ir.Block) []int {
	switch b.Term.Op {
	case ir.TermGoto:
		return []int{int(b.Term.Then)}
	case ir.TermIf:
		if b.Term.Then == b.Term.Else {
			return []int{int(b.Term.Then)}
		}
		return []int{int(b.Term.Then), int(b.Term.Else)}
	default:
		return nil
	}
}

// countBlockAccesses counts the traced access events of a block.
func countBlockAccesses(b *ir.Block) int {
	n := 0
	for i := range b.Instrs {
		n += b.Instrs[i].AccessCount()
	}
	return n
}

// ComputeNumbering builds the path numbering of a method. maxPaths <= 0
// selects DefaultMaxPaths.
func ComputeNumbering(m *ir.Method, maxPaths uint64) *Numbering {
	if maxPaths == 0 {
		maxPaths = DefaultMaxPaths
	}
	n := len(m.Blocks)
	nb := &Numbering{
		Method:       m,
		cut:          make(map[edge]bool),
		inc:          make(map[edge]uint64),
		numPaths:     make([]uint64, n),
		endsHere:     make([]uint64, n),
		startBase:    make(map[int]uint64),
		AccessCounts: make([]int, n),
	}
	for i, b := range m.Blocks {
		nb.AccessCounts[i] = countBlockAccesses(b)
	}

	// 1. Find back edges with an iterative DFS (white/gray/black).
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, n)
	type dfsFrame struct {
		v    int
		succ []int
		i    int
	}
	stack := []dfsFrame{{v: 0, succ: successors(m.Blocks[0])}}
	color[0] = gray
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.i < len(top.succ) {
			w := top.succ[top.i]
			top.i++
			switch color[w] {
			case gray:
				nb.cut[edge{top.v, w}] = true // back edge
			case white:
				color[w] = gray
				stack = append(stack, dfsFrame{v: w, succ: successors(m.Blocks[w])})
			}
			continue
		}
		color[top.v] = black
		stack = stack[:len(stack)-1]
	}

	// 2. Topological order of the DAG (cut edges removed). Unreachable
	// blocks are appended so every block gets a numbering.
	topo := topoOrder(m, nb.cut)

	// 3. Path counts in reverse topological order, inserting capacity cuts
	// where the count would exceed maxPaths.
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		nb.recount(m, v)
		if nb.numPaths[v] > maxPaths {
			// Cut successor edges (largest contribution first) until the
			// count fits. At least one path must remain: ending at v.
			succ := nb.liveSuccessors(m, v)
			sort.Slice(succ, func(a, b int) bool {
				return nb.numPaths[succ[a]] > nb.numPaths[succ[b]]
			})
			for _, w := range succ {
				nb.cut[edge{v, w}] = true
				nb.recount(m, v)
				if nb.numPaths[v] <= maxPaths {
					break
				}
			}
		}
	}

	// 4. Edge increments: the end-here variant occupies [0, endsHere);
	// successor edge i covers [base_i, base_i+numPaths(w_i)).
	for _, v := range topo {
		base := nb.endsHere[v]
		for _, w := range successors(m.Blocks[v]) {
			e := edge{v, w}
			if nb.cut[e] {
				continue
			}
			nb.inc[e] = base
			base += nb.numPaths[w]
		}
	}

	// 5. Start blocks: the entry plus every cut-edge target; assign bases.
	startSet := map[int]bool{0: true}
	for e := range nb.cut {
		startSet[e.to] = true
	}
	for s := range startSet {
		nb.starts = append(nb.starts, s)
	}
	sort.Ints(nb.starts)
	var total uint64
	for _, s := range nb.starts {
		nb.startBase[s] = total
		total += nb.numPaths[s]
	}
	nb.TotalPaths = total
	return nb
}

// recount recomputes numPaths and endsHere for v from current cuts.
func (nb *Numbering) recount(m *ir.Method, v int) {
	blk := m.Blocks[v]
	ends := uint64(0)
	if blk.Term.Op == ir.TermReturn {
		ends = 1
	}
	var sum uint64
	for _, w := range successors(blk) {
		if nb.cut[edge{v, w}] {
			ends = 1
			continue
		}
		sum += nb.numPaths[w]
	}
	nb.endsHere[v] = ends
	nb.numPaths[v] = ends + sum
}

// liveSuccessors returns v's successors over non-cut edges.
func (nb *Numbering) liveSuccessors(m *ir.Method, v int) []int {
	var out []int
	for _, w := range successors(m.Blocks[v]) {
		if !nb.cut[edge{v, w}] {
			out = append(out, w)
		}
	}
	return out
}

// topoOrder orders blocks so that every non-cut edge goes forward.
func topoOrder(m *ir.Method, cut map[edge]bool) []int {
	n := len(m.Blocks)
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		for _, w := range successors(m.Blocks[v]) {
			if !cut[edge{v, w}] {
				indeg[w]++
			}
		}
	}
	var order []int
	var queue []int
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range successors(m.Blocks[v]) {
			if cut[edge{v, w}] {
				continue
			}
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) < n {
		seen := make([]bool, n)
		for _, v := range order {
			seen[v] = true
		}
		for v := 0; v < n; v++ {
			if !seen[v] {
				order = append(order, v)
			}
		}
	}
	return order
}

// IsCut reports whether the edge (from, to) terminates paths.
func (nb *Numbering) IsCut(from, to int) bool { return nb.cut[edge{from, to}] }

// Increment returns the Ball–Larus increment of the edge (from, to).
func (nb *Numbering) Increment(from, to int) uint64 { return nb.inc[edge{from, to}] }

// PathID returns the method-wide path ID of the path that started at block
// start and accumulated increment r.
func (nb *Numbering) PathID(start int, r uint64) uint64 { return nb.startBase[start] + r }

// Decode expands a path ID into its block sequence. It inverts PathID: the
// start block is the one whose base range contains id, and the walk follows
// the successor whose increment range contains the remainder.
func (nb *Numbering) Decode(id uint64) ([]int, error) {
	if id >= nb.TotalPaths {
		return nil, fmt.Errorf("profiler: path id %d out of range [0,%d) in %s", id, nb.TotalPaths, nb.Method.Signature())
	}
	// Find the start block.
	start := -1
	for _, s := range nb.starts {
		if id >= nb.startBase[s] && id < nb.startBase[s]+nb.numPaths[s] {
			start = s
			break
		}
	}
	if start < 0 {
		return nil, fmt.Errorf("profiler: no start block for path id %d in %s", id, nb.Method.Signature())
	}
	r := id - nb.startBase[start]
	seq := []int{start}
	v := start
	for {
		if r < nb.endsHere[v] {
			return seq, nil
		}
		base := nb.endsHere[v]
		next := -1
		for _, w := range successors(nb.Method.Blocks[v]) {
			e := edge{v, w}
			if nb.cut[e] {
				continue
			}
			if r >= base && r < base+nb.numPaths[w] {
				next = w
				r -= base
				break
			}
			base += nb.numPaths[w]
		}
		if next < 0 {
			return nil, fmt.Errorf("profiler: undecodable remainder %d at block %d of %s", r, v, nb.Method.Signature())
		}
		seq = append(seq, next)
		v = next
	}
}

// PathAccessCount returns the number of traced accesses on the decoded path.
func (nb *Numbering) PathAccessCount(blocks []int) int {
	n := 0
	for _, b := range blocks {
		n += nb.AccessCounts[b]
	}
	return n
}
