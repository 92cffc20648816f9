package main

import (
	"math"
	"sort"
)

// quantile returns the exact q-quantile (0 <= q <= 1) of xs, computed from
// the raw samples by linear interpolation between the two closest order
// statistics (the "type 7" estimator of R and NumPy's default). The result
// always lies within [min(xs), max(xs)]. xs is not modified; an empty xs
// gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// median is the exact 0.5-quantile of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is num/den, or 0 when den is 0 (a rate over no attempts).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
