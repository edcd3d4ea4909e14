package main

import (
	"math"
	"sort"
)

// nearestRank returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method: the smallest sample with at least p% of the
// samples at or below it. The rank is computed in integers so that, for
// example, p90 of ten samples is exactly the ninth. xs is not modified;
// an empty xs gives NaN.
func nearestRank(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	rank := (p*len(s) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// quartiles returns the first quartile, median and third quartile of
// xs. The quartiles use the same exclusive method as Python's
// statistics.quantiles(xs, n=4), so spreads printed here match ones
// computed from the same values elsewhere.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	mid := len(s) / 2
	med = s[mid]
	if len(s)%2 == 0 {
		med = (s[mid-1] + s[mid]) / 2
	}
	return q(1), med, q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
