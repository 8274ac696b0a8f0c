package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: nearestRank must sort
	}
	return xs
}

func TestNearestRankRefusesThinTail(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64 // 0: refused
	}{
		{100, 0.5, 50},
		{100, 0.9, 90}, // 10 samples beyond
		{100, 0.95, 0}, // 5 beyond
		{100, 0.99, 0}, // 1 beyond
		{1000, 0.99, 990},
		{20, 0.5, 10},
		{19, 0.5, 0}, // 9 beyond
		{110, 0.9, 99},
		{0, 0.5, 0},
	}
	for _, c := range cases {
		got, err := nearestRank(seq(c.n), c.q)
		switch {
		case c.want == 0 && err == nil:
			t.Errorf("p%g of %d = %g, want refusal", 100*c.q, c.n, got)
		case c.want != 0 && (err != nil || got != c.want):
			t.Errorf("p%g of %d = %g, %v; want %g", 100*c.q, c.n, got, err, c.want)
		}
	}
}

func TestGeomean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 4, 16}, 4},
		{[]float64{2, 8}, 4},
		{[]float64{3}, 3},
		{[]float64{0.5, 2}, 1},
	} {
		got, err := geomean(c.xs)
		if err != nil || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("geomean(%v) = %g, %v; want %g", c.xs, got, err, c.want)
		}
	}
	for _, xs := range [][]float64{nil, {1, 0}, {-1, 2}, {math.Inf(1)}, {math.NaN()}} {
		if got, err := geomean(xs); err == nil {
			t.Errorf("geomean(%v) = %g, want an error", xs, got)
		}
	}
}

// TestQuartilesMatchPython pins the values of Python's
// statistics.quantiles(xs, n=4) and statistics.median.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{7, 7}, 7, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 || median(c.xs) != c.med {
			t.Errorf("quartiles(%v) = %g, %g, median %g; want %g, %g, %g", c.xs, q1, q3, median(c.xs), c.q1, c.q3, c.med)
		}
	}
}
