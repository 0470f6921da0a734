// Package stats provides the small statistical helpers used by the
// experiment harness: means, extrema, and percentage improvements as
// reported in the paper's tables.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Improvement returns the percentage improvement of cur over old:
// 100*(old-cur)/old. Positive means cur is faster.
func Improvement(old, cur float64) float64 {
	if old == 0 {
		return 0
	}
	return 100 * (old - cur) / old
}

// Median returns the median of xs, or 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Stddev returns the population standard deviation of xs.
func Stddev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Summary bundles the aggregate statistics the paper reports.
type Summary struct {
	Mean, Max, Min, Median, Stddev float64
	N                              int
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	return Summary{
		Mean:   Mean(xs),
		Max:    Max(xs),
		Min:    Min(xs),
		Median: Median(xs),
		Stddev: Stddev(xs),
		N:      len(xs),
	}
}
