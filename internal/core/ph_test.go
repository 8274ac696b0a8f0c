package core

import (
	"testing"

	"nimage/internal/graal"
	"nimage/internal/ir"
)

// phWorld builds methods a..f for ordering tests.
func phWorld(t *testing.T) map[string]*ir.Method {
	t.Helper()
	ms := map[string]*ir.Method{}
	b := ir.NewBuilder("ph")
	cb := b.Class("P")
	for _, n := range []string{"a", "b", "c", "d", "e", "f"} {
		m := cb.StaticMethod(n, 0, ir.Void())
		m.Entry().RetVoid()
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b", "c", "d", "e", "f"} {
		ms[n] = p.Class("P").DeclaredMethod(n)
	}
	return ms
}

// cusOf wraps the named methods as single-member compilation units.
func cusOf(t *testing.T, ms map[string]*ir.Method, names ...string) []*graal.CompilationUnit {
	t.Helper()
	out := make([]*graal.CompilationUnit, 0, len(names))
	for _, n := range names {
		m := ms[n]
		out = append(out, &graal.CompilationUnit{
			Root: m, Members: []*ir.Method{m}, Size: m.CodeSize(),
		})
	}
	return out
}

func TestCallGraphAccumulates(t *testing.T) {
	ms := phWorld(t)
	g := NewCallGraph()
	g.AddCall(ms["a"], ms["b"])
	g.AddCall(ms["b"], ms["a"]) // same undirected edge
	g.AddCall(ms["a"], ms["c"])
	g.AddCall(nil, ms["a"])     // entry call: hotness only
	g.AddCall(ms["a"], ms["a"]) // self edge ignored
	if len(g.Weights) != 2 {
		t.Fatalf("edges = %d", len(g.Weights))
	}
	key := [2]*ir.Method{ms["a"], ms["b"]}
	if ms["a"].Signature() > ms["b"].Signature() {
		key = [2]*ir.Method{ms["b"], ms["a"]}
	}
	if g.Weights[key] != 2 {
		t.Errorf("a-b weight = %d", g.Weights[key])
	}
	// a: callee of (b,a), (nil,a), and the recursive (a,a) = 3 entries.
	if g.Hotness[ms["a"]] != 3 || g.Hotness[ms["b"]] != 1 {
		t.Errorf("hotness: %v", g.Hotness)
	}
}

func TestPettisHansenHotEdgeAdjacency(t *testing.T) {
	ms := phWorld(t)
	g := NewCallGraph()
	// Hot pair (c, e): weight 100. Lukewarm (a, b): 10. Cold: d, f unseen.
	for i := 0; i < 100; i++ {
		g.AddCall(ms["c"], ms["e"])
	}
	for i := 0; i < 10; i++ {
		g.AddCall(ms["a"], ms["b"])
	}
	gcus := cusOf(t, ms, "a", "b", "c", "d", "e", "f")
	order := PettisHansenOrder(gcus, g)
	if len(order) != 6 {
		t.Fatalf("order length %d", len(order))
	}
	pos := map[string]int{}
	for i, cu := range order {
		pos[cu.Root.Name] = i
	}
	// The hottest edge's endpoints are adjacent and come first.
	if d := pos["c"] - pos["e"]; d != 1 && d != -1 {
		t.Errorf("hot pair not adjacent: %v", pos)
	}
	if pos["c"] > 2 || pos["e"] > 2 {
		t.Errorf("hot chain not first: %v", pos)
	}
	if ab := pos["a"] - pos["b"]; ab != 1 && ab != -1 {
		t.Errorf("warm pair not adjacent: %v", pos)
	}
	// Unprofiled CUs keep default order at the end.
	if pos["d"] > pos["f"] {
		t.Errorf("cold tail reordered: %v", pos)
	}
	if pos["d"] < 4 {
		t.Errorf("cold CU before hot chains: %v", pos)
	}
}

func TestPettisHansenChainMerging(t *testing.T) {
	ms := phWorld(t)
	g := NewCallGraph()
	// Chain a-b (50), b-c (40), c-d (30): should coalesce into one chain
	// a b c d (or its reverse).
	for i := 0; i < 50; i++ {
		g.AddCall(ms["a"], ms["b"])
	}
	for i := 0; i < 40; i++ {
		g.AddCall(ms["b"], ms["c"])
	}
	for i := 0; i < 30; i++ {
		g.AddCall(ms["c"], ms["d"])
	}
	order := PettisHansenOrder(cusOf(t, ms, "a", "b", "c", "d"), g)
	got := ""
	for _, cu := range order {
		got += cu.Root.Name
	}
	if got != "abcd" && got != "dcba" {
		t.Errorf("chain order = %q", got)
	}
}

// TestPettisHansenMidChainEndpointNoFlip pins the merge behavior when an
// edge endpoint sits in the middle of its chain: no flip can bring it to
// the join boundary, so the chains concatenate with the endpoints
// non-adjacent (b stays interior; d lands next to c).
func TestPettisHansenMidChainEndpointNoFlip(t *testing.T) {
	ms := phWorld(t)
	g := NewCallGraph()
	for i := 0; i < 50; i++ {
		g.AddCall(ms["a"], ms["b"])
	}
	for i := 0; i < 40; i++ {
		g.AddCall(ms["b"], ms["c"])
	}
	for i := 0; i < 30; i++ {
		g.AddCall(ms["b"], ms["d"])
	}
	got := ""
	for _, cu := range PettisHansenOrder(cusOf(t, ms, "a", "b", "c", "d"), g) {
		got += cu.Root.Name
	}
	// After a-b and b-c coalesce into [a b c], the b-d edge finds b
	// mid-chain: [a b c] keeps its orientation and [d] joins at the tail.
	if got != "abcd" {
		t.Errorf("order = %q, want abcd (mid-chain endpoint must not flip)", got)
	}
}

// TestPettisHansenEndpointFlips pins both flip branches: a head-of-chain
// left endpoint reverses its chain to reach the join, and a tail-of-chain
// right endpoint reverses its chain to lead with the endpoint.
func TestPettisHansenEndpointFlips(t *testing.T) {
	ms := phWorld(t)
	g := NewCallGraph()
	for i := 0; i < 50; i++ {
		g.AddCall(ms["a"], ms["b"]) // chain [a b]
	}
	for i := 0; i < 40; i++ {
		g.AddCall(ms["c"], ms["d"]) // chain [c d]
	}
	for i := 0; i < 30; i++ {
		g.AddCall(ms["a"], ms["d"]) // joins the two, a and d both need flips
	}
	got := ""
	for _, cu := range PettisHansenOrder(cusOf(t, ms, "a", "b", "c", "d"), g) {
		got += cu.Root.Name
	}
	// [a b] flips to [b a] (a was at the head, must reach the tail) and
	// [c d] flips to [d c] (d was at the tail, must reach the head), so the
	// a-d endpoints are adjacent: b a | d c.
	if got != "badc" {
		t.Errorf("order = %q, want badc (both chains must flip)", got)
	}
}

// TestPettisHansenTieBreakExactOrder pins the deterministic tie-breaks:
// equal-weight edges process in signature order and equal-heat chains emit
// in first-method signature order.
func TestPettisHansenTieBreakExactOrder(t *testing.T) {
	ms := phWorld(t)
	g := NewCallGraph()
	g.AddCall(ms["e"], ms["f"])
	g.AddCall(ms["c"], ms["d"])
	g.AddCall(ms["a"], ms["b"])
	got := ""
	for _, cu := range PettisHansenOrder(cusOf(t, ms, "a", "b", "c", "d", "e", "f"), g) {
		got += cu.Root.Name
	}
	if got != "abcdef" {
		t.Errorf("order = %q, want abcdef (signature tie-breaks)", got)
	}
}

func TestPettisHansenDeterministic(t *testing.T) {
	ms := phWorld(t)
	mk := func() string {
		g := NewCallGraph()
		// Equal-weight edges force tie-breaking.
		g.AddCall(ms["a"], ms["b"])
		g.AddCall(ms["c"], ms["d"])
		g.AddCall(ms["e"], ms["f"])
		out := ""
		for _, cu := range PettisHansenOrder(cusOf(t, ms, "a", "b", "c", "d", "e", "f"), g) {
			out += cu.Root.Name
		}
		return out
	}
	if a, b := mk(), mk(); a != b {
		t.Errorf("nondeterministic: %q vs %q", a, b)
	}
}
