// Package core implements the paper's primary contribution: profile-guided
// reordering of the .text compilation units (Sec. 4) and of the .svm_heap
// objects (Sec. 5), including the three 64-bit object-identity strategies
// used to match heap-snapshot objects across builds — incremental ID
// (Algorithm 1), structural hash (Algorithm 2), and heap path (Algorithm 3)
// — and the matcher that applies an object-access profile to the optimized
// build's snapshot.
package core

import "nimage/internal/graal"

// Code-ordering strategy names (Sec. 4.1, 4.2).
const (
	StrategyCU     = "cu"
	StrategyMethod = "method"
)

// CodeOrderResult is the outcome of applying a code-ordering profile.
type CodeOrderResult struct {
	// Order is the new CU layout order.
	Order []*graal.CompilationUnit
	// Matched counts profile entries that named a CU root of this build.
	Matched int
	// ProfileLen is the number of profile entries consumed.
	ProfileLen int
}

// OrderCUs reorders compilation units so that CUs named by the profile come
// first, in profile order, followed by the remaining CUs in their default
// (alphabetical) order.
//
// The profile is a deduplicated first-execution-order list of method
// signatures: CU-entry traces for the cu strategy, full method-entry traces
// for the method strategy (Sec. 4.2: a CU's position is the first occurrence
// of its root method in the trace). Profile entries that do not name a CU
// root in this build — e.g. methods that this build inlined everywhere — are
// skipped, which is exactly how divergence between the instrumented and the
// optimized build degrades the ordering (Sec. 4).
func OrderCUs(cus []*graal.CompilationUnit, profile []string) CodeOrderResult {
	res := CodeOrderResult{ProfileLen: len(profile)}
	bySig := make(map[string]*graal.CompilationUnit, len(cus))
	for _, cu := range cus {
		bySig[cu.Signature()] = cu
	}
	placed := make(map[*graal.CompilationUnit]bool, len(cus))
	order := make([]*graal.CompilationUnit, 0, len(cus))
	for _, sig := range profile {
		cu := bySig[sig]
		if cu == nil || placed[cu] {
			continue
		}
		res.Matched++
		placed[cu] = true
		order = append(order, cu)
	}
	for _, cu := range cus {
		if !placed[cu] {
			order = append(order, cu)
		}
	}
	res.Order = order
	return res
}
