// Package stat holds the order statistics the benchmark and its compare
// tool report.
package stat

import (
	"math"
	"sort"
)

// Summary is the spread of one metric's samples: the median and quartiles
// as Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method), and the sample count.
type Summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// Summarize computes the summary of xs. One sample is its own median and
// quartiles; no samples give the zero summary.
func Summarize(xs []float64) Summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return Summary{}
	case 1:
		return Summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return Summary{Median: q(2), Q1: q(1), Q3: q(3), N: n}
}

// Median is Summarize(xs).Median.
func Median(xs []float64) float64 { return Summarize(xs).Median }

// NearestRank returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method, and how many samples lie beyond it. xs must not be
// empty.
func NearestRank(xs []float64, p float64) (v float64, beyond int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := max(int(math.Ceil(p/100*float64(len(s)))), 1)
	return s[rank-1], len(s) - rank
}
