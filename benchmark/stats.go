package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailPercentiles are the candidates the tail picker chooses from,
// highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported.
const minBeyond = 10

// tailPercentile picks the highest candidate percentile that still has
// at least minBeyond samples beyond it (1,000 samples support p99, 10,000
// support p99.9) and returns it with its value. With too few samples for
// any candidate it falls back to the median (percentile 50).
func tailPercentile(vals []float64) (pct, value float64) {
	if len(vals) == 0 {
		return 50, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	for _, p := range tailPercentiles {
		if beyond(len(s), p) >= minBeyond {
			return p, percentileSorted(s, p)
		}
	}
	return 50, percentileSorted(s, 50)
}

// beyond is the number of samples strictly above the p-th percentile's
// rank among n.
func beyond(n int, p float64) int {
	return n - rank(n, p) - 1
}

// rank is the nearest-rank index of the p-th percentile among n sorted
// samples.
func rank(n int, p float64) int {
	// The epsilon keeps 99.9% of 10,000 at 9,990 when the product rounds
	// a hair above it.
	r := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// percentileSorted reads the p-th percentile (nearest rank) of sorted
// samples.
func percentileSorted(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)]
}

// percentile is percentileSorted over unsorted samples; 0 for none.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}
