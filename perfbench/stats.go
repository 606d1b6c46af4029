package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it: the eleventh-largest value, as the percentile
// 100*(n-10)/n of n samples. ok is false with ten samples or fewer,
// where no percentile qualifies.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= 10 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	return s[n-11], 100 * float64(n-10) / float64(n), true
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method, extrapolating for tiny samples), so the spread compare reports
// is the one a reader recomputes from the printed values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return math.Inf(1)
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
