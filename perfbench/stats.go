package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the exact q-quantile (q in [0,1]) of sorted, using the
// nearest-rank definition: the smallest sample with at least q·n samples
// at or below it. No interpolation and no buckets, so a shift of any size
// in the underlying samples moves the result. Returns 0 when empty.
func quantile(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// sortDurations sorts d in place and returns it.
func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// median returns the median of xs (mean of the middle pair for even
// lengths) without modifying xs. Returns 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
