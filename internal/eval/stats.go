// Package eval reproduces the paper's evaluation (Sec. 7): for every
// workload and ordering strategy it builds several images, runs each once
// on a cold page cache (repeated cold starts of one image are identical,
// so builds are the only source of variance), measures page faults by
// section and simulated execution time, and reports
// baseline/optimized factors with 95% confidence intervals — the data
// behind Figures 2–5, the profiling-overhead table (Sec. 7.4), the
// accessed-object fraction (Sec. 7.2), and the Fig. 6 page-grid
// visualization.
package eval

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// tQuantile975 holds Student's t quantile t(0.975, df) for df = 1..30.
var tQuantile975 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CI95 returns the half-width of the 95% confidence interval of the mean:
// Student's t at n-1 degrees of freedom (the normal 1.96 beyond 30), since
// the samples are a handful of builds.
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	t := 1.96
	if df := len(xs) - 1; df <= len(tQuantile975) {
		t = tQuantile975[df-1]
	}
	return t * StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// GeoMean returns the geometric mean of xs (0 when any value is <= 0).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// RatioCI propagates the uncertainty of a ratio a/b from the CIs of its
// numerator and denominator (first-order delta method). Degenerate cases
// are explicit rather than silently 0: a zero denominator yields NaN (the
// ratio itself is not measurable), and a zero numerator whose measurements
// still have spread yields the first-order absolute uncertainty aCI/|b|.
func RatioCI(a, aCI, b, bCI float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	if a == 0 {
		return math.Abs(aCI / b)
	}
	r := a / b
	return math.Abs(r) * math.Sqrt((aCI/a)*(aCI/a)+(bCI/b)*(bCI/b))
}

// Cell is one bar of a figure: a factor with its confidence interval.
type Cell struct {
	Workload string
	Strategy string
	// Factor is M_baseline / M_optimized (higher is better, Sec. 7.1).
	Factor float64
	// CI is the 95% confidence half-width of the factor.
	CI float64
	// BaselineMean / OptimizedMean are the underlying means.
	BaselineMean  float64
	OptimizedMean float64
	// Degenerate marks cells whose factor is not measurable because the
	// denominator mean is zero. Factor and CI are NaN (which renders as an
	// explicit "NaN" column in CSV), and the cell is excluded from
	// geomeans.
	Degenerate bool
}

// Table is the data behind one figure.
type Table struct {
	Title      string
	Metric     string
	Strategies []string
	Cells      []Cell
}

// Get returns the cell for (workload, strategy), or nil.
func (t *Table) Get(workload, strategy string) *Cell {
	for i := range t.Cells {
		if t.Cells[i].Workload == workload && t.Cells[i].Strategy == strategy {
			return &t.Cells[i]
		}
	}
	return nil
}

// Workloads returns the distinct workloads in first-appearance order,
// excluding the geomean pseudo-row.
func (t *Table) Workloads() []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range t.Cells {
		if c.Workload == GeoMeanRow || seen[c.Workload] {
			continue
		}
		seen[c.Workload] = true
		out = append(out, c.Workload)
	}
	return out
}

// GeoMeanRow is the pseudo-workload name of the geometric-mean bars.
const GeoMeanRow = "geomean"

// AddGeoMean appends per-strategy geometric-mean cells across workloads
// (the paper reports the geomean after the AWFY benchmarks, Sec. 7.1).
// Degenerate cells are excluded; a column with no measurable cells yields
// a degenerate geomean cell.
func (t *Table) AddGeoMean() {
	for _, s := range t.Strategies {
		var fs []float64
		for _, c := range t.Cells {
			if c.Strategy == s && c.Workload != GeoMeanRow && !c.Degenerate {
				fs = append(fs, c.Factor)
			}
		}
		cell := Cell{Workload: GeoMeanRow, Strategy: s}
		if len(fs) == 0 {
			cell.Degenerate = true
			cell.Factor = math.NaN()
			cell.CI = math.NaN()
		} else {
			cell.Factor = GeoMean(fs)
		}
		t.Cells = append(t.Cells, cell)
	}
}

// CSV renders the table as CSV (workload, strategy, factor, ci, baseline,
// optimized).
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString("workload,strategy,factor,ci95,baseline,optimized\n")
	for _, c := range t.Cells {
		fmt.Fprintf(&sb, "%s,%s,%.4f,%.4f,%.2f,%.2f\n",
			c.Workload, c.Strategy, c.Factor, c.CI, c.BaselineMean, c.OptimizedMean)
	}
	return sb.String()
}

// Render draws the table as an ASCII bar chart grouped by workload, the
// textual analogue of the paper's figures.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (%s; factor = baseline/optimized, higher is better)\n", t.Title, t.Metric)
	maxF := 1.0
	for _, c := range t.Cells {
		if c.Factor > maxF {
			maxF = c.Factor
		}
	}
	const width = 40
	names := append(t.Workloads(), GeoMeanRow)
	for _, w := range names {
		any := false
		for _, s := range t.Strategies {
			if t.Get(w, s) != nil {
				any = true
			}
		}
		if !any {
			continue
		}
		fmt.Fprintf(&sb, "%s\n", w)
		for _, s := range t.Strategies {
			c := t.Get(w, s)
			if c == nil {
				continue
			}
			if c.Degenerate {
				fmt.Fprintf(&sb, "  %-16s %-*s n/a (zero mean)\n", s, width, "")
				continue
			}
			n := int(c.Factor / maxF * width)
			if n < 0 {
				n = 0
			}
			bar := strings.Repeat("#", n)
			ci := ""
			if c.CI > 0 {
				ci = fmt.Sprintf(" ±%.2f", c.CI)
			}
			fmt.Fprintf(&sb, "  %-16s %-*s %.2fx%s\n", s, width, bar, c.Factor, ci)
		}
	}
	return sb.String()
}

// SortCells orders cells by workload (keeping the strategy order given).
func (t *Table) SortCells() {
	rank := map[string]int{}
	for i, s := range t.Strategies {
		rank[s] = i
	}
	sort.SliceStable(t.Cells, func(i, j int) bool {
		a, b := t.Cells[i], t.Cells[j]
		if a.Workload != b.Workload {
			// geomean last.
			if a.Workload == GeoMeanRow {
				return false
			}
			if b.Workload == GeoMeanRow {
				return true
			}
			return a.Workload < b.Workload
		}
		return rank[a.Strategy] < rank[b.Strategy]
	})
}
