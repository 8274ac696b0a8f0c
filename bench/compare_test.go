package main

import "testing"

// around returns ten values spread ±1% around v.
func around(v float64) []float64 {
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = v * (0.99 + 0.002*float64(i))
	}
	return xs
}

// ten returns ten copies of v: a deterministic metric over ten seeds.
func ten(v float64) []float64 {
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func zipPairs(parent, change []float64) [][2]float64 {
	pairs := make([][2]float64, len(parent))
	for i := range parent {
		pairs[i] = [2]float64{parent[i], change[i]}
	}
	return pairs
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "sim_speedup", Better: "higher", Bound: 0.1}
	exact := metricDef{Name: "sim_faults", Better: "lower", Bound: 0.05}
	steady := around(100)
	wide := []float64{60, 70, 80, 90, 100, 100, 110, 120, 130, 140}
	// Eight of ten pairs better by 20%, two worse by 1%.
	mostly := scaled(steady, 0.8)
	mostly[0], mostly[9] = steady[0]*1.01, steady[9]*1.01
	for _, c := range []struct {
		name           string
		m              metricDef
		parent, change []float64
		want           string
	}{
		{"faster in every pair", lower, steady, scaled(steady, 0.9), improved},
		{"identical", lower, steady, steady, unchanged},
		{"worse within the bound", lower, steady, scaled(steady, 1.05), unchanged},
		{"worse beyond the bound", lower, steady, scaled(steady, 1.15), regressed},
		{"better in 8 of 10 pairs", lower, steady, mostly, unchanged},
		{"spread wider than the bound", lower, wide, scaled(wide, 0.97), unresolved},
		{"spread wide but every change run better", lower, wide, scaled(wide, 0.4), improved},
		{"spread wide, every run better, gain inside the spread",
			lower, []float64{100, 100, 100, 100, 100, 100, 100, 200, 200, 200},
			[]float64{99, 99, 99, 99, 99, 99, 99, 99, 99, 99}, unchanged},
		{"higher is better, change higher", higher, steady, scaled(steady, 1.2), improved},
		{"higher is better, change lower", higher, steady, scaled(steady, 0.8), regressed},
		{"deterministic, unchanged", exact, ten(40), ten(40), unchanged},
		{"deterministic, 3% worse", exact, ten(40), ten(41.2), unchanged},
		{"deterministic, 6% worse", exact, ten(40), ten(42.4), regressed},
		{"deterministic, better", exact, ten(40), ten(39), improved},
		{"too few pairs, identical", exact, []float64{40, 40}, []float64{40, 40}, unchanged},
		{"too few pairs, better", lower, steady[:9], scaled(steady[:9], 0.5), unresolved},
		{"too few pairs, worse", lower, steady[:9], scaled(steady[:9], 2), unresolved},
	} {
		if got := verdict(c.m, c.parent, c.change, zipPairs(c.parent, c.change)); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
