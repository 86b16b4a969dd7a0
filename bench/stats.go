package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank percentile of v (p in (0,1]); v need not be
// sorted. An empty sample reads 0.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// median is the arithmetic median (mean of the two middle values when even).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile that still has ten samples beyond it — the
// informational op_tail_ms. ok is false below twenty samples.
func tail(v []float64) (value, pct float64, ok bool) {
	n := len(v)
	if n < 20 {
		return 0, 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-10) / float64(n), true
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(v, n=4) gives them (exclusive method), so `compare`
// computes the spread the way the acceptance rule states it.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		if n == 1 {
			return v[0], v[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}
