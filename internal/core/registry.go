package core

import "nimage/internal/graal"

// The strategy registry: the single source of truth for every layout
// strategy the toolchain knows. The bake pipeline, the cold-start and
// serve figure sets, the differential verifier, and the CLIs all
// enumerate from here, so registering a strategy once wires it
// everywhere (previously each of those surfaces kept its own hard-coded
// name list, which drifted).

// StrategyInfo describes one registered layout strategy: its profiling
// needs, which sections it reorders, and which evaluation surfaces it
// appears on.
type StrategyInfo struct {
	// Name is the strategy's CLI-visible identifier.
	Name string
	// Instr lists the instrumented profiling builds the bake pipeline
	// needs, one per probe kind. Empty for graph strategies: they record
	// their affinity input on an uninstrumented run.
	Instr []graal.Instrumentation
	// Graph marks strategies that consume the recorded affinity graph
	// instead of first-touch traces.
	Graph bool
	// Text and Heap mark which image sections the strategy reorders;
	// figures charge a strategy the fault metric of the sections it
	// claims to improve.
	Text bool
	Heap bool
	// Eval marks membership in the cold-start figure set and Serve in
	// the serve-mode figure set; every registered strategy is on at least
	// one. The graph layouts are serve-only: a finished cold start's
	// faults depend on the executed set, not its order, so they cannot
	// separate there.
	Eval  bool
	Serve bool
}

// registry lists every strategy in figure order: the paper's six
// strategies first, then the graph-based serve layouts.
var registry = []StrategyInfo{
	{Name: StrategyCU, Instr: []graal.Instrumentation{graal.InstrCU}, Text: true, Eval: true, Serve: true},
	{Name: StrategyMethod, Instr: []graal.Instrumentation{graal.InstrMethod}, Text: true, Eval: true},
	{Name: StrategyIncremental, Instr: []graal.Instrumentation{graal.InstrHeap}, Heap: true, Eval: true},
	{Name: StrategyStructural, Instr: []graal.Instrumentation{graal.InstrHeap}, Heap: true, Eval: true},
	{Name: StrategyHeapPath, Instr: []graal.Instrumentation{graal.InstrHeap}, Heap: true, Eval: true, Serve: true},
	{Name: StrategyCombined, Instr: []graal.Instrumentation{graal.InstrCU, graal.InstrHeap}, Text: true, Heap: true, Eval: true, Serve: true},
	{Name: StrategyC3, Graph: true, Text: true, Serve: true},
	{Name: StrategyExtTSP, Graph: true, Text: true, Serve: true},
}

// Registry returns every registered strategy, in figure order.
func Registry() []StrategyInfo {
	out := make([]StrategyInfo, len(registry))
	copy(out, registry)
	return out
}

// StrategyByName looks a strategy up by its CLI name.
func StrategyByName(name string) (StrategyInfo, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return StrategyInfo{}, false
}

// IsGraphStrategy reports whether the named strategy consumes the
// recorded affinity graph.
func IsGraphStrategy(name string) bool {
	s, ok := StrategyByName(name)
	return ok && s.Graph
}

// StrategyNames returns every registered strategy name, in figure order.
func StrategyNames() []string {
	return strategyNames(func(StrategyInfo) bool { return true })
}

// EvalStrategyNames returns the cold-start figure set.
func EvalStrategyNames() []string {
	return strategyNames(func(s StrategyInfo) bool { return s.Eval })
}

// ServeStrategyNames returns the serve figure set.
func ServeStrategyNames() []string {
	return strategyNames(func(s StrategyInfo) bool { return s.Serve })
}

func strategyNames(keep func(StrategyInfo) bool) []string {
	var out []string
	for _, s := range registry {
		if keep(s) {
			out = append(out, s.Name)
		}
	}
	return out
}
