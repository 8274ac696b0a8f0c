package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples a reported percentile must have beyond
// it; a percentile with a thinner tail is refused rather than reported.
const minTail = 10

// nearestRank returns the q-quantile of xs by the nearest-rank method. It
// refuses a quantile with fewer than minTail samples beyond it.
func nearestRank(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if rank := rankOf(n, q); n == 0 || n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, max(n-rank, 0), minTail)
	}
	return quantile(xs, q), nil
}

// quantile returns the nearest-rank q-quantile of xs, which must not be
// empty, with no requirement on the samples beyond it.
func quantile(xs []float64, q float64) float64 {
	return sortedCopy(xs)[rankOf(len(xs), q)-1]
}

func rankOf(n int, q float64) int {
	return max(int(math.Ceil(q*float64(n))), 1)
}

// geomean returns the geometric mean of xs, which must all be positive and
// finite.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geomean of no values")
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 0) {
			return 0, fmt.Errorf("geomean of non-positive or infinite value %g", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// median returns the median of xs, averaging the middle pair of an even
// count (Python's statistics.median).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the exclusive
// method of Python's statistics.quantiles(xs, n=4), the definition the
// benchmark's spread bounds are stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
