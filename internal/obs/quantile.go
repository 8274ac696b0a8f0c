package obs

import (
	"math"
	"sort"
)

// QuantileExact returns the exact nearest-rank q-quantile of a sorted
// sample — unlike histogram quantiles, which interpolate buckets. It is
// the single shared implementation behind the serve-mode burst quantiles
// and the fleet's warm-latency quantiles. An empty sample yields 0; q is
// clamped to [0, 1] by the rank computation. The sample must already be
// sorted ascending: passing an unsorted slice is a programming error and
// panics, because a silently wrong p99 is worse than a crash.
func QuantileExact(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(sorted) {
		panic("obs: QuantileExact requires an ascending sorted sample")
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
