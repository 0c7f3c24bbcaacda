package main

import (
	"math"
	"sort"
)

// percentileIndex is the 0-based rank of the p-permille value among n sorted
// samples.
func percentileIndex(n, permille int) int { return n * permille / 1000 }

// percentileAllowed is the guide's rule: a percentile is reported only when
// at least ten samples lie beyond it.
func percentileAllowed(n, permille int) bool {
	return n > 0 && n-1-percentileIndex(n, permille) >= 10
}

// percentile returns the p-permille value of samples (sorted in place); the
// median interpolates even counts, tails take the rank directly.
func percentile(samples []float64, permille int) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	if permille == 500 {
		return medianSorted(samples)
	}
	return samples[percentileIndex(len(samples), permille)]
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summary is the median and quartiles of one metric over a workload's reps.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Raw    []float64 `json:"raw"` // per rep, in run order
}

// summarize computes the median and the exclusive-method quartiles (the ones
// Python's statistics.quantiles(values, n=4) returns, which is what the
// acceptance spread is defined by). Fewer than two values have no spread.
func summarize(raw []float64) summary {
	s := summary{Raw: raw}
	if len(raw) == 0 {
		s.Median, s.Q1, s.Q3 = math.NaN(), math.NaN(), math.NaN()
		return s
	}
	sorted := append([]float64(nil), raw...)
	sort.Float64s(sorted)
	s.Median = medianSorted(sorted)
	s.Q1, s.Q3 = s.Median, s.Median
	if len(sorted) >= 2 {
		s.Q1 = quantileExclusive(sorted, 1, 4)
		s.Q3 = quantileExclusive(sorted, 3, 4)
	}
	return s
}

// quantileExclusive is the i-th of n cut points of sorted data, by the
// exclusive method: position i·(m+1)/n, clamped into the data.
func quantileExclusive(sorted []float64, i, n int) float64 {
	m := len(sorted)
	j := i * (m + 1) / n
	if j < 1 {
		j = 1
	}
	if j > m-1 {
		j = m - 1
	}
	delta := i*(m+1) - j*n
	return (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / float64(n)
}

// spreadFrac is the inter-quartile distance as a share of the median.
func (s summary) spreadFrac() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}
