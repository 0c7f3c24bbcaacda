// Package metrics provides the measurement primitives used across BASS:
// latency histograms with percentile queries, empirical CDFs, and
// append-only time series. All types are for single-goroutine use.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Histogram accumulates float64 samples and answers order-statistic queries.
// The zero value is ready to use.
type Histogram struct {
	samples []float64
	sorted  bool
}

// Observe records one sample. NaN and infinite samples are ignored so that a
// single bad measurement cannot poison percentile queries.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	h.samples = append(h.samples, v)
	h.sorted = false
}

// Count reports the number of recorded samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Sum reports the sum of all recorded samples.
func (h *Histogram) Sum() float64 {
	var s float64
	for _, v := range h.samples {
		s += v
	}
	return s
}

// Mean reports the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.Sum() / float64(len(h.samples))
}

// StdDev reports the population standard deviation, or 0 with fewer than two
// samples.
func (h *Histogram) StdDev() float64 {
	n := len(h.samples)
	if n < 2 {
		return 0
	}
	mean := h.Mean()
	var ss float64
	for _, v := range h.samples {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Min reports the smallest sample, or 0 for an empty histogram.
func (h *Histogram) Min() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.ensureSorted()
	return h.samples[0]
}

// Max reports the largest sample, or 0 for an empty histogram.
func (h *Histogram) Max() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.ensureSorted()
	return h.samples[len(h.samples)-1]
}

// Quantile reports the q-th quantile (0 ≤ q ≤ 1) using linear interpolation
// between order statistics. It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	h.ensureSorted()
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return h.samples[lo]
	}
	frac := pos - float64(lo)
	return h.samples[lo]*(1-frac) + h.samples[hi]*frac
}

// Median reports the 50th percentile.
func (h *Histogram) Median() float64 { return h.Quantile(0.5) }

// P90 reports the 90th percentile.
func (h *Histogram) P90() float64 { return h.Quantile(0.90) }

// P99 reports the 99th percentile.
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// CDF returns the empirical CDF as (value, cumulative fraction) pairs, one
// per distinct sample value.
func (h *Histogram) CDF() []CDFPoint {
	n := len(h.samples)
	if n == 0 {
		return nil
	}
	h.ensureSorted()
	points := make([]CDFPoint, 0, n)
	for i, v := range h.samples {
		frac := float64(i+1) / float64(n)
		if len(points) > 0 && points[len(points)-1].Value == v {
			points[len(points)-1].Fraction = frac
			continue
		}
		points = append(points, CDFPoint{Value: v, Fraction: frac})
	}
	return points
}

// Snapshot returns a copy of the recorded samples in sorted order.
func (h *Histogram) Snapshot() []float64 {
	h.ensureSorted()
	out := make([]float64, len(h.samples))
	copy(out, h.samples)
	return out
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.samples = h.samples[:0]
	h.sorted = true
}

// Summary returns the common summary statistics in one call.
func (h *Histogram) Summary() Summary {
	return Summary{
		Count:  h.Count(),
		Mean:   h.Mean(),
		StdDev: h.StdDev(),
		Min:    h.Min(),
		Median: h.Median(),
		P90:    h.Quantile(0.90),
		P99:    h.P99(),
		Max:    h.Max(),
	}
}

func (h *Histogram) ensureSorted() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// CDFPoint is one point on an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// Summary holds the standard summary statistics of a histogram.
type Summary struct {
	Count  int
	Mean   float64
	StdDev float64
	Min    float64
	Median float64
	P90    float64
	P99    float64
	Max    float64
}

// String renders the summary as a compact single line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g",
		s.Count, s.Mean, s.StdDev, s.Min, s.Median, s.P90, s.P99, s.Max)
}
