package core

import (
	"reflect"
	"strings"
	"testing"

	"nimage/internal/obs/affinity"
	"nimage/internal/obs/attrib"
)

// testGraph assembles a minimal affinity graph over named CU symbols plus
// one non-text node, so every ordering test also covers the text filter.
func testGraph(nodes []affinity.Node, edges []affinity.Edge) *affinity.Graph {
	withNoise := append([]affinity.Node{}, nodes...)
	withNoise = append(withNoise,
		affinity.Node{Name: "<header>", Kind: attrib.KindHeader, Len: 4096, Accesses: 999},
		affinity.Node{Name: "hub:X", Kind: attrib.KindObject, Len: 64, Accesses: 888},
	)
	return &affinity.Graph{Nodes: withNoise, Edges: edges}
}

func cuNode(name string, size, heat int64) affinity.Node {
	return affinity.Node{Name: name, Kind: attrib.KindCU, Section: ".text", Len: size, Accesses: heat}
}

func TestC3OrderClustersCoAccessedSymbols(t *testing.T) {
	g := testGraph(
		[]affinity.Node{
			cuNode("A", 128, 100),
			cuNode("B", 128, 90),
			cuNode("C", 128, 10),
			cuNode("D", 128, 5),
		},
		[]affinity.Edge{
			{A: 0, B: 1, Weight: 50},
			{A: 2, B: 3, Weight: 8},
			// Non-text edge must be ignored.
			{A: 0, B: 4, Weight: 1000},
		},
	)
	got := C3Order(g)
	if want := []string{"A", "B", "C", "D"}; !reflect.DeepEqual(got, want) {
		t.Errorf("C3Order = %v, want %v", got, want)
	}
}

func TestC3OrderRespectsMergeLimit(t *testing.T) {
	// Both symbols are over half the chain budget: merging would overflow
	// it, so they stay singleton chains even with a heavy edge.
	g := testGraph(
		[]affinity.Node{
			cuNode("A", c3MergeLimit/2+1, 100),
			cuNode("B", c3MergeLimit/2+1, 90),
		},
		[]affinity.Edge{{A: 0, B: 1, Weight: 50}},
	)
	got := C3Order(g)
	if len(got) != 2 {
		t.Fatalf("C3Order = %v", got)
	}
	// Still emitted, untouched-chain tie broken by heat: A (hotter) first.
	if got[0] != "A" || got[1] != "B" {
		t.Errorf("C3Order = %v, want [A B]", got)
	}
}

func TestC3OrderEmitsByFirstTouch(t *testing.T) {
	// Chains keep their temporal positions: the chain first touched during
	// startup precedes the burst-hot chain touched later, no matter the
	// heat — and a merge inherits the earliest member clock, so a cold
	// early symbol anchors its whole cluster.
	early := cuNode("early", 100, 2)
	early.FirstClock = 1
	late := cuNode("late", 100, 500)
	late.FirstClock = 900
	lateMate := cuNode("lateMate", 100, 400)
	lateMate.FirstClock = 950
	g := testGraph(
		[]affinity.Node{late, lateMate, early},
		[]affinity.Edge{{A: 0, B: 1, Weight: 80}},
	)
	got := C3Order(g)
	if want := []string{"early", "late", "lateMate"}; !reflect.DeepEqual(got, want) {
		t.Errorf("C3Order = %v, want %v", got, want)
	}
}

func TestExtTSPOrderKeepsTransitionsAdjacent(t *testing.T) {
	// A-B heavy, A-C lighter: the best layout places A between B and C so
	// both transitions are byte-adjacent (an orientation flip, since A-B
	// merges first into a chain that must reverse to expose A).
	g := testGraph(
		[]affinity.Node{
			cuNode("A", 64, 100),
			cuNode("B", 64, 90),
			cuNode("C", 64, 10),
		},
		[]affinity.Edge{
			{A: 0, B: 1, Weight: 10, Trans: 10},
			{A: 0, B: 2, Weight: 5, Trans: 5},
		},
	)
	got := ExtTSPOrder(g)
	if len(got) != 3 {
		t.Fatalf("ExtTSPOrder = %v", got)
	}
	pos := map[string]int{}
	for i, n := range got {
		pos[n] = i
	}
	if d := pos["A"] - pos["B"]; d != 1 && d != -1 {
		t.Errorf("A-B not adjacent: %v", got)
	}
	if d := pos["A"] - pos["C"]; d != 1 && d != -1 {
		t.Errorf("A-C not adjacent: %v", got)
	}
}

func TestExtTSPOrderColdSingletonsTail(t *testing.T) {
	g := testGraph(
		[]affinity.Node{
			cuNode("hot1", 64, 100),
			cuNode("hot2", 64, 80),
			cuNode("cold", 64, 1),
		},
		[]affinity.Edge{{A: 0, B: 1, Weight: 10, Trans: 10}},
	)
	got := ExtTSPOrder(g)
	if len(got) != 3 || got[2] != "cold" {
		t.Errorf("ExtTSPOrder = %v, want cold symbol last", got)
	}
}

func TestGraphOrdersDeterministic(t *testing.T) {
	mk := func() *affinity.Graph {
		return testGraph(
			[]affinity.Node{
				cuNode("A", 64, 10), cuNode("B", 64, 10),
				cuNode("C", 64, 10), cuNode("D", 64, 10),
			},
			[]affinity.Edge{
				{A: 0, B: 1, Weight: 5, Trans: 5},
				{A: 2, B: 3, Weight: 5, Trans: 5},
				{A: 1, B: 2, Weight: 5, Trans: 5},
			},
		)
	}
	if a, b := C3Order(mk()), C3Order(mk()); !reflect.DeepEqual(a, b) {
		t.Errorf("C3Order nondeterministic: %v vs %v", a, b)
	}
	if a, b := ExtTSPOrder(mk()), ExtTSPOrder(mk()); !reflect.DeepEqual(a, b) {
		t.Errorf("ExtTSPOrder nondeterministic: %v vs %v", a, b)
	}
}

func TestGraphOrdersEmptyGraph(t *testing.T) {
	if got := C3Order(&affinity.Graph{}); got != nil {
		t.Errorf("C3Order(empty) = %v", got)
	}
	if got := ExtTSPOrder(&affinity.Graph{}); got != nil {
		t.Errorf("ExtTSPOrder(empty) = %v", got)
	}
}

func TestRegistryWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Registry() {
		if s.Name == "" {
			t.Fatal("registered strategy with empty name")
		}
		if seen[s.Name] {
			t.Fatalf("duplicate strategy %q", s.Name)
		}
		seen[s.Name] = true
		if s.Graph && len(s.Instr) != 0 {
			t.Errorf("%s: graph strategies record uninstrumented, want no probe kinds", s.Name)
		}
		if !s.Graph && len(s.Instr) == 0 {
			t.Errorf("%s: trace strategy without probe kinds", s.Name)
		}
		if !s.Text && !s.Heap {
			t.Errorf("%s: reorders no section", s.Name)
		}
		got, ok := StrategyByName(s.Name)
		if !ok || !reflect.DeepEqual(got, s) {
			t.Errorf("StrategyByName(%q) = %+v, %v", s.Name, got, ok)
		}
	}
	if _, ok := StrategyByName("bogus"); ok {
		t.Error("unknown strategy resolved")
	}
	// The serve set is a subset of the registry and includes the graph
	// strategies; the eval (cold-start) set is the paper's six and
	// excludes them.
	all := strings.Join(StrategyNames(), ",")
	for _, name := range ServeStrategyNames() {
		if !seen[name] {
			t.Errorf("serve strategy %q not registered (%s)", name, all)
		}
	}
	contains := func(names []string, want string) bool {
		for _, n := range names {
			if n == want {
				return true
			}
		}
		return false
	}
	for _, name := range []string{StrategyC3, StrategyExtTSP, StrategySLOSearch} {
		if !IsGraphStrategy(name) {
			t.Errorf("IsGraphStrategy(%q) = false", name)
		}
		if !contains(ServeStrategyNames(), name) {
			t.Errorf("%q missing from serve set", name)
		}
		if contains(EvalStrategyNames(), name) {
			t.Errorf("%q in the cold-start set %v", name, EvalStrategyNames())
		}
	}
	if n := len(EvalStrategyNames()); n != 6 {
		t.Errorf("cold-start set has %d strategies, want the paper's six: %v", n, EvalStrategyNames())
	}
	if IsGraphStrategy(StrategyCU) {
		t.Error("cu misclassified as graph strategy")
	}
}
