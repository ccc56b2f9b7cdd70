package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (the mean of the two middle
// values for an even count), or NaN for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of v by the exclusive method,
// as Python's statistics.quantiles(v, n=4) gives them. v needs at least
// two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentiles are the tail percentiles a timing may be reported at.
var percentiles = []float64{99.9, 99, 95, 90, 75, 50}

// highestPercentile returns the highest of percentiles with at least
// ten of n samples beyond it: a tail percentile resting on fewer
// samples is mostly noise. ok is false below twenty samples.
func highestPercentile(n int) (p float64, ok bool) {
	for _, p := range percentiles {
		// n*(100-p)/100 >= 10, in tenths of a percent to stay exact.
		if n*int(math.Round((100-p)*10)) >= 10*1000 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

// sum adds v up.
func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}
