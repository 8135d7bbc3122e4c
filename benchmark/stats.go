package main

import (
	"math"
	"sort"
)

// rank is the nearest-rank position of the p-th percentile among n
// samples; the epsilon keeps 99.9 % of 10,000 at 9,990.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// percentile returns the p-th percentile (0 < p ≤ 100) of sorted by
// the nearest-rank rule, or 0 when there are no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// beyond is the number of samples above the p-th percentile's rank
// among n.
func beyond(n int, p float64) int { return n - rank(n, p) }

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is
// what the driver uses for spreads. It needs two values or more.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		switch {
		case j < 1:
			j = 1
		case j > n-1:
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
