package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of vs by linear interpolation between
// closest ranks. vs is sorted in place.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	pos := q * float64(len(vs)-1)
	lo := int(pos)
	if lo+1 >= len(vs) {
		return vs[len(vs)-1]
	}
	frac := pos - float64(lo)
	return vs[lo] + frac*(vs[lo+1]-vs[lo])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// geomean is the geometric mean of positive values.
func geomean(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

func mean(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
