package graal

import (
	"sort"
	"strings"

	"nimage/internal/ir"
	"nimage/internal/murmur"
)

// Compilation is the output of compiling a program: the reachable world and
// its compilation units in default (alphabetical) order.
type Compilation struct {
	Program *ir.Program
	Config  Config
	Instr   Instrumentation
	// PGO marks profile-guided (optimized) builds, which inline more
	// aggressively than regular/instrumented builds.
	PGO   bool
	Reach *Reachability
	// CUs in default Native-Image order: alphabetical by root signature.
	CUs []*CompilationUnit
	// CUBySig indexes CUs by root signature.
	CUBySig map[string]*CompilationUnit
}

// Compile runs reachability analysis, scans the reachable methods, forms
// compilation units, collects CU code constants (with optimization-
// dependent folding), and runs partial escape analysis.
func Compile(p *ir.Program, cfg Config, instr Instrumentation, pgo bool) *Compilation {
	reach := Analyze(p, cfg)
	return Assemble(p, cfg, instr, pgo, reach, ScanMethods(reach))
}

// Assemble turns a completed reachability analysis and its method scan
// (ScanMethods) into a compilation: it forms compilation units (inlining),
// collects CU code constants, and runs partial escape analysis. Splitting
// it from Analyze lets callers time the two compiler halves independently,
// and taking the scan lets the builds of one pipeline share it.
func Assemble(p *ir.Program, cfg Config, instr Instrumentation, pgo bool, reach *Reachability, scan *MethodScan) *Compilation {
	c := &Compilation{
		Program: p,
		Config:  cfg,
		Instr:   instr,
		PGO:     pgo,
		Reach:   reach,
	}
	c.CUs = buildCUs(reach, scan, cfg, instr, pgo)
	c.CUBySig = make(map[string]*CompilationUnit, len(c.CUs))
	for _, cu := range c.CUs {
		c.CUBySig[cu.Signature()] = cu
		collectConstants(cu, cfg, scan)
		cu.ScalarReplaced = peaCount(cu, scan)
	}
	return c
}

// TextSize returns the summed CU sizes (the .text payload).
func (c *Compilation) TextSize() int {
	s := 0
	for _, cu := range c.CUs {
		s += cu.Size
	}
	return s
}

// collectConstants gathers the distinct string literals compiled into the
// CU (from the root and all inlinees, in code order) and decides which of
// them optimization folds away. The folding decision is a deterministic
// function of the CU *composition* and the literal, so two builds fold the
// same constant differently when their inlining differs — reproducing the
// heap-snapshot divergence of Sec. 2.
func collectConstants(cu *CompilationUnit, cfg Config, scan *MethodScan) {
	var comp uint64
	hashed := false
	for i := -1; i < len(cu.Inlined); i++ {
		m := cu.Root
		if i >= 0 {
			m = cu.Inlined[i]
		}
		for _, lit := range scan.facts[m].literals {
			if cu.hasConstant(lit) {
				continue
			}
			folded := false
			if cfg.FoldPercent > 0 {
				if !hashed {
					comp, hashed = compositionHash(cu), true
				}
				h := murmur.Sum64Seed([]byte(lit), comp)
				folded = int(h%100) < cfg.FoldPercent
			}
			cu.Constants = append(cu.Constants, Constant{
				Literal: lit,
				Source:  m,
				Folded:  folded,
			})
		}
	}
}

// hasConstant reports whether lit is already among the CU's constants.
func (cu *CompilationUnit) hasConstant(lit string) bool {
	for i := range cu.Constants {
		if cu.Constants[i].Literal == lit {
			return true
		}
	}
	return false
}

// compositionHash hashes the member set of a CU.
func compositionHash(cu *CompilationUnit) uint64 {
	sigs := make([]string, 0, len(cu.Members))
	for _, m := range cu.Members {
		sigs = append(sigs, m.Signature())
	}
	sort.Strings(sigs)
	return murmur.Sum64([]byte(strings.Join(sigs, ";")))
}

// peaCount sums, over the distinct members of the CU, the allocations a
// method-local partial escape analysis finds non-escaping (and that Graal's
// PEA [51] would therefore scalar-replace).
func peaCount(cu *CompilationUnit, scan *MethodScan) int {
	n := 0
	for _, m := range cu.Members {
		n += scan.facts[m].nonEscaping
	}
	return n
}
