package main

import (
	"math"
	"sort"
)

// quartiles returns the three cut points of statistics.quantiles(v,
// n=4) in Python (the default "exclusive" method), which is what the
// driver's acceptance check uses — so a spread computed here is the
// spread it will see. Fewer than two values yield the value itself.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// percentile is the nearest-rank percentile of v (p in (0,1]): the
// smallest value with at least p of the samples at or below it. With
// fewer than 1/(1-p) samples it is the maximum.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// ratio is a/b, 0 when b is 0 — for shares of a layer that did no
// work in a workload.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
