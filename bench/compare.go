package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// runFile is one run's result as -o writes it.
type runFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// Verdicts of compare.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// minPairs is the fewest same-seed pairs compare judges a difference on.
const minPairs = 10

// verdict judges one metric of one workload from the parent's and the
// change's runs; pairs holds (parent, change) values of runs with the same
// seed. With fewer than minPairs pairs, any difference is unresolved. The
// change improved when it wins at least nine tenths of the pairs, ties
// counting for neither, and the medians differ by more than the parent's
// interquartile spread. It regressed when its median is worse than the
// parent's by more than the metric's bound. When the parent's spread is
// wider than the bound, the metric is unresolved unless every change run
// reads better than every parent run.
func verdict(m metricDef, parent, change []float64, pairs [][2]float64) string {
	sign := m.sign()
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	gain := sign * (cm - pm)
	switch {
	case len(pairs) < minPairs:
		if gain == 0 {
			return unchanged
		}
		return unresolved
	case 10*wins(m, pairs) >= 9*len(pairs) && gain > q3-q1:
		return improved
	case -gain > m.Bound*math.Abs(pm):
		return regressed
	case q3-q1 > m.Bound*math.Abs(pm) && !allBetter(sign, parent, change):
		return unresolved
	}
	return unchanged
}

// sign is +1 for a metric where higher is better and -1 otherwise, so
// that sign × (change − parent) > 0 means the change is better.
func (m metricDef) sign() float64 {
	if m.Better == "higher" {
		return 1
	}
	return -1
}

// wins counts the pairs in which the change reads better than the parent.
func wins(m metricDef, pairs [][2]float64) int {
	n := 0
	for _, p := range pairs {
		if m.sign()*(p[1]-p[0]) > 0 {
			n++
		}
	}
	return n
}

// allBetter reports whether every change value beats every parent value.
func allBetter(sign float64, parent, change []float64) bool {
	for _, c := range change {
		for _, p := range parent {
			if sign*(c-p) <= 0 {
				return false
			}
		}
	}
	return len(parent) > 0 && len(change) > 0
}

// loadRuns reads the untraced run results in dir, by workload.
func loadRuns(dir string) (map[string][]runFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]runFile{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !rf.Trace {
			out[rf.Workload] = append(out[rf.Workload], rf)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no untraced run results", dir)
	}
	return out, nil
}

// compare prints, per workload and end-to-end metric, both sides' medians
// and quartiles, the change's wins over the parent in same-seed pairs, and
// the verdict.
func compare(parentDir, changeDir string, w io.Writer) error {
	parent, err := loadRuns(parentDir)
	if err != nil {
		return err
	}
	change, err := loadRuns(changeDir)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tchange\twins\tverdict")
	for _, spec := range workloadSpecs {
		ps, cs := parent[spec.name], change[spec.name]
		if len(ps) == 0 || len(cs) == 0 {
			continue
		}
		for _, m := range endToEnd {
			pv, cv := metricValues(ps, m.Name), metricValues(cs, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			pairs := seedPairs(ps, cs, m.Name)
			pq1, pq3 := quartiles(pv)
			cq1, cq3 := quartiles(cv)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %s\t%.4g [%.4g, %.4g]\t%+.1f%%\t%d/%d\t%s\n",
				spec.name, m.Name, median(pv), pq1, pq3, m.Unit, median(cv), cq1, cq3,
				100*(median(cv)/median(pv)-1), wins(m, pairs), len(pairs), verdict(m, pv, cv, pairs))
		}
		fmt.Fprintf(tw, "%s\tfailed ops\t%d of %d\t%d of %d\t\t\t\n", spec.name,
			sumField(ps, func(r runFile) int { return r.Failed }), sumField(ps, func(r runFile) int { return r.Attempted }),
			sumField(cs, func(r runFile) int { return r.Failed }), sumField(cs, func(r runFile) int { return r.Attempted }))
	}
	return tw.Flush()
}

func metricValues(runs []runFile, name string) []float64 {
	var vs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// seedPairs pairs the parent's and the change's runs of the same seed.
func seedPairs(parent, change []runFile, name string) [][2]float64 {
	bySeed := map[uint64][]float64{}
	for _, r := range parent {
		if v, ok := r.Metrics[name]; ok {
			bySeed[r.Seed] = append(bySeed[r.Seed], v.Value)
		}
	}
	var pairs [][2]float64
	for _, r := range change {
		v, ok := r.Metrics[name]
		if !ok || len(bySeed[r.Seed]) == 0 {
			continue
		}
		pairs = append(pairs, [2]float64{bySeed[r.Seed][0], v.Value})
		bySeed[r.Seed] = bySeed[r.Seed][1:]
	}
	return pairs
}

func sumField(runs []runFile, f func(runFile) int) int {
	n := 0
	for _, r := range runs {
		n += f(r)
	}
	return n
}
