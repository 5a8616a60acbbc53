package main

import "sort"

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs, 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so the
// spreads compare prints are the ones the acceptance rule is stated in.
// Fewer than two values have no spread: all three cut points are the value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) < 2 {
		m := median(xs)
		return m, m, m
	}
	s := sorted(xs)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// tailPercentiles are the candidates for the reported tail, highest last.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// tail returns the highest candidate percentile that still has at least
// ten samples beyond it, and its value (nearest rank).
func tail(xs []float64) (pct, value float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	n := float64(len(s))
	pct = tailPercentiles[0]
	for _, p := range tailPercentiles {
		if n*(100-p)/100 >= 10 {
			pct = p
		}
	}
	i := int(n*pct/100+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return pct, s[i]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	var m float64
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

func minOf(xs []float64) float64 {
	var m float64
	for i, x := range xs {
		if i == 0 || x < m {
			m = x
		}
	}
	return m
}
