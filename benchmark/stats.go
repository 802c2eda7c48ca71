package main

import (
	"math"
	"sort"
)

// rank is the 1-based nearest-rank position of percentile p among n
// samples. The epsilon keeps p·n that should be whole (0.99 × 1000) from
// rounding up past it.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	return max(1, min(r, n))
}

// percentile returns the nearest-rank p-th percentile of xs (which it
// sorts). Failed requests enter xs as +Inf, so they count as missing any
// latency limit.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(p, len(xs))-1]
}

// median returns the middle of xs (mean of the two middle values for an
// even count). It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of xs by the same
// "exclusive" method as Python's statistics.quantiles(xs, n=4). It needs
// at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
