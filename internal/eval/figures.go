package eval

import (
	"fmt"
	"math"
	"strings"

	"nimage/internal/core"
	"nimage/internal/image"
	"nimage/internal/osim"
	"nimage/internal/vm"
	"nimage/internal/workloads"
)

// factorTable measures every strategy against the baseline on a workload
// set: one factor cell per (workload, strategy) over the per-build values
// value selects. The full (workload, strategy, build) matrix is prefetched
// through the scheduler; assembly afterwards is pure cache reads in
// deterministic order.
func (h *Harness) factorTable(title, metric string, ws []workloads.Workload, value func(strategy string, m RunMeasure) float64) (*Table, error) {
	if err := h.Prefetch(ws, Strategies()); err != nil {
		return nil, err
	}
	t := &Table{Title: title, Metric: metric, Strategies: Strategies()}
	for _, w := range ws {
		base, err := h.MeasureBaseline(w)
		if err != nil {
			return nil, err
		}
		for _, s := range Strategies() {
			opt, err := h.MeasureStrategy(w, s)
			if err != nil {
				return nil, err
			}
			var bs, os []float64
			for _, m := range base {
				bs = append(bs, value(s, m))
			}
			for _, m := range opt.Measures {
				os = append(os, value(s, m))
			}
			t.Cells = append(t.Cells, FactorCell(w.Name, s, bs, os))
		}
	}
	t.AddGeoMean()
	t.SortCells()
	return t, nil
}

// PageFaultTable builds a page-fault reduction table over an arbitrary
// workload set (the shape of Figures 2 and 3).
func (h *Harness) PageFaultTable(title string, ws []workloads.Workload) (*Table, error) {
	return h.factorTable(title, "page-fault reduction", ws, metricOf)
}

// SpeedupTable builds an execution-time speedup table over an arbitrary
// workload set (the shape of Figures 4 and 5). Its means are in µs, so
// the CSV's two-decimal mean columns keep their digits.
func (h *Harness) SpeedupTable(title string, ws []workloads.Workload) (*Table, error) {
	return h.factorTable(title, "execution-time speedup; means in µs", ws,
		func(_ string, m RunMeasure) float64 { return m.Time * 1e6 })
}

// Figure2 reproduces the AWFY page-fault reductions.
func (h *Harness) Figure2() (*Table, error) {
	return h.PageFaultTable("Figure 2: page-fault reduction on AWFY", workloads.AWFY())
}

// Figure3 reproduces the microservice page-fault reductions.
func (h *Harness) Figure3() (*Table, error) {
	return h.PageFaultTable("Figure 3: page-fault reduction on microservices", workloads.Microservices())
}

// Figure4 reproduces the microservice execution-time speedups.
func (h *Harness) Figure4() (*Table, error) {
	return h.SpeedupTable("Figure 4: execution-time speedup on microservices", workloads.Microservices())
}

// Figure5 reproduces the AWFY execution-time speedups.
func (h *Harness) Figure5() (*Table, error) {
	return h.SpeedupTable("Figure 5: execution-time speedup on AWFY", workloads.AWFY())
}

// OverheadGroup names the three instrumentation kinds of the overhead
// table (Sec. 7.4 reports one factor for all heap strategies because their
// emitted instrumentation is identical).
var OverheadGroups = []string{"cu", "method", "heap"}

// Overhead measures the profiling overhead (Sec. 7.4): instrumented run
// time divided by regular run time, per instrumentation kind. Its means
// are compute times in µs.
func (h *Harness) Overhead(ws []workloads.Workload) (*Table, error) {
	t := &Table{Title: "Profiling overhead (Sec. 7.4)", Metric: "instrumented/regular compute time (lower is better); means in µs", Strategies: OverheadGroups}
	groupStrategy := map[string]string{
		"cu":     core.StrategyCU,
		"method": core.StrategyMethod,
		"heap":   core.StrategyHeapPath,
	}
	if err := h.Prefetch(ws, []string{core.StrategyCU, core.StrategyMethod, core.StrategyHeapPath}); err != nil {
		return nil, err
	}
	for _, w := range ws {
		base, err := h.MeasureBaseline(w)
		if err != nil {
			return nil, err
		}
		var bt []float64
		for _, m := range base {
			bt = append(bt, m.CPUSeconds*1e6)
		}
		for _, g := range OverheadGroups {
			opt, err := h.MeasureStrategy(w, groupStrategy[g])
			if err != nil {
				return nil, err
			}
			var pt []float64
			for _, r := range opt.Profiling {
				pt = append(pt, r.CPUTime.Seconds()*1e6)
			}
			pm, bm := Mean(pt), Mean(bt)
			c := Cell{Workload: w.Name, Strategy: g, BaselineMean: bm, OptimizedMean: pm}
			if bm == 0 {
				// Unmeasurable overhead ratio: mark explicitly, as in
				// FactorCell.
				c.Degenerate = true
				c.Factor = math.NaN()
				c.CI = math.NaN()
			} else {
				c.Factor = pm / bm
				c.CI = RatioCI(pm, CI95(pt), bm, CI95(bt))
			}
			t.Cells = append(t.Cells, c)
		}
	}
	// Overhead averages are arithmetic in the paper's prose; keep geomean
	// for consistency of the summary row.
	t.AddGeoMean()
	t.SortCells()
	return t, nil
}

// AccessedFraction measures the fraction of snapshot objects a workload
// accesses (the paper reports ~4% on AWFY, Sec. 7.2).
func (h *Harness) AccessedFraction(ws []workloads.Workload) (map[string]float64, error) {
	if err := h.Prefetch(ws, nil); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(ws))
	for _, w := range ws {
		ms, err := h.MeasureBaseline(w)
		if err != nil {
			return nil, err
		}
		var fs []float64
		for _, m := range ms {
			fs = append(fs, m.AccessedFrac)
		}
		out[w.Name] = Mean(fs)
	}
	return out, nil
}

// Figure6 produces the page-state grids of the .text section for the
// given workload (default: Bounce) under the regular binary and the
// cu-ordered binary — the data behind the Fig. 6 visualization.
func (h *Harness) Figure6(workloadName string) (regular, optimized []osim.PageState, err error) {
	return h.pageStates(workloadName, image.SectionText, core.StrategyCU)
}

// Figure6Heap is the heap-snapshot analogue of Fig. 6 — the visualization
// the paper lists as future work (Appendix A): page states of .svm_heap
// under the regular binary and the heap-path-ordered binary.
func (h *Harness) Figure6Heap(workloadName string) (regular, optimized []osim.PageState, err error) {
	return h.pageStates(workloadName, image.SectionHeap, core.StrategyHeapPath)
}

// pageStates runs the workload over build 0 of the regular and a
// strategy-optimized image and returns the page-state grids of one
// section.
func (h *Harness) pageStates(workloadName, section, strategy string) (regular, optimized []osim.PageState, err error) {
	w, err := workloads.ByName(workloadName)
	if err != nil {
		return nil, nil, err
	}
	states := func(layout string) ([]osim.PageState, error) {
		res, _, err := h.bake(w, layout, 0, false, nil)
		if err != nil {
			return nil, err
		}
		proc, err := res.Optimized.NewProcess(h.newOS(), vm.Hooks{})
		if err != nil {
			return nil, err
		}
		defer proc.Close()
		proc.Machine.StopOnRespond = w.Service
		if err := proc.Run(w.Args...); err != nil {
			return nil, err
		}
		return proc.Mapping.PageStates(section), nil
	}
	if regular, err = states(LayoutBaseline); err != nil {
		return nil, nil, err
	}
	if optimized, err = states(strategy); err != nil {
		return nil, nil, err
	}
	return regular, optimized, nil
}

// CompilerInfo summarizes the compiled world of every workload (classes,
// methods, CUs, snapshot objects and bytes) — useful context for reports.
func (h *Harness) CompilerInfo(ws []workloads.Workload) (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %8s %8s %8s %10s %12s %12s\n",
		"workload", "classes", "methods", "CUs", "objects", "text(B)", "heap(B)")
	for _, w := range ws {
		res, _, err := h.bake(w, LayoutBaseline, 0, false, nil)
		if err != nil {
			return "", err
		}
		p, img := h.Program(w), res.Optimized
		fmt.Fprintf(&sb, "%-12s %8d %8d %8d %10d %12d %12d\n",
			w.Name, len(p.Classes), p.NumMethods(), len(img.CULayout),
			len(img.Snapshot.Objects), img.TextSize(), img.HeapSize())
	}
	return sb.String(), nil
}
