// Package trace models time-varying link bandwidth. It provides the Trace
// type (a 1 Hz-or-finer capacity series), CSV persistence compatible with
// exported testbed measurements, summary statistics, and a synthetic
// generator calibrated to the CityLab traces characterised in the BASS paper
// (Fig 2): a mean-reverting AR(1) process with occasional deep "shadowing"
// dips that model trucks, foliage, and interference bursts.
package trace

import (
	"errors"
	"math"
	"time"
)

// errEmptyTrace is returned by operations that need at least one sample.
var errEmptyTrace = errors.New("trace: empty trace")

// Trace is a time-ordered series of link capacity samples in Mbps, spaced
// Step apart starting at offset zero. It stores the run-length encoding of
// the samples, built once by its constructor, and is immutable after: a
// Trace may be shared across goroutines.
type Trace struct {
	// Name identifies the link the trace was measured on, e.g. "node3-node4".
	Name string
	// Step is the sampling interval.
	Step time.Duration

	// runs are the runs of equal consecutive samples (see changepoints.go),
	// the only copy of the samples; n is their count.
	runs []run
	n    int
}

// Constant returns a trace with n samples all equal to mbps: one run.
func Constant(name string, step time.Duration, mbps float64, n int) *Trace {
	t := &Trace{Name: name, Step: step}
	t.add(mbps, n)
	return t
}

// Len reports the number of samples.
func (t *Trace) Len() int { return t.n }

// Duration reports the time covered by the trace.
func (t *Trace) Duration() time.Duration {
	return time.Duration(t.n) * t.Step
}

// Samples returns the capacity samples in Mbps, a fresh slice expanded from
// the runs.
func (t *Trace) Samples() []float64 {
	out := make([]float64, t.n)
	for k, r := range t.runs {
		end := t.n
		if k+1 < len(t.runs) {
			end = t.runs[k+1].idx
		}
		for i := r.idx; i < end; i++ {
			out[i] = r.val
		}
	}
	return out
}

// At returns the capacity in Mbps in effect at offset d. Offsets before the
// start clamp to the first sample; offsets past the end wrap around, so a
// short trace can drive an arbitrarily long experiment (the paper replays a
// 20-minute trace in a loop).
func (t *Trace) At(d time.Duration) float64 {
	if t.n == 0 {
		return 0
	}
	idx := 0
	if d >= 0 {
		idx = int(d/t.Step) % t.n
	}
	return t.runs[t.runAfter(idx)-1].val
}

// AtBps returns the capacity at offset d in bits per second.
func (t *Trace) AtBps(d time.Duration) float64 {
	return t.At(d) * 1e6
}

// Mean reports the mean capacity in Mbps.
func (t *Trace) Mean() float64 { return mean(t.Samples()) }

// StdDev reports the population standard deviation in Mbps.
func (t *Trace) StdDev() float64 { return stdDev(t.Samples()) }

// Min reports the smallest sample, or 0 for an empty trace.
func (t *Trace) Min() float64 { return minOf(t.Samples()) }

// Max reports the largest sample, or 0 for an empty trace.
func (t *Trace) Max() float64 { return maxOf(t.Samples()) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

func stdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := mean(xs)
	var ss float64
	for _, v := range xs {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, v := range xs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// RollingMean returns the trace smoothed by a trailing mean over the given
// window, matching the paper's Fig 2 presentation.
func (t *Trace) RollingMean(window time.Duration) *Trace {
	in := t.Samples()
	if t.Step <= 0 || len(in) == 0 {
		return &Trace{Name: t.Name, Step: t.Step}
	}
	w := int(window / t.Step)
	if w < 1 {
		w = 1
	}
	out := &Trace{Name: t.Name, Step: t.Step}
	var sum float64
	for i, v := range in {
		sum += v
		if i >= w {
			sum -= in[i-w]
		}
		n := i + 1
		if n > w {
			n = w
		}
		out.add(sum/float64(n), 1)
	}
	return out
}

// Summary describes a trace in the terms the paper uses: mean capacity and
// standard deviation expressed as a percentage of the mean.
type Summary struct {
	Name        string
	MeanMbps    float64
	StdMbps     float64
	StdPctMean  float64
	MinMbps     float64
	MaxMbps     float64
	DurationSec float64
}

// Summarize computes the trace summary. It returns errEmptyTrace for an
// empty trace.
func (t *Trace) Summarize() (Summary, error) {
	xs := t.Samples()
	if len(xs) == 0 {
		return Summary{}, errEmptyTrace
	}
	m := mean(xs)
	std := stdDev(xs)
	pct := 0.0
	if m != 0 {
		pct = 100 * std / m
	}
	return Summary{
		Name:        t.Name,
		MeanMbps:    m,
		StdMbps:     std,
		StdPctMean:  pct,
		MinMbps:     minOf(xs),
		MaxMbps:     maxOf(xs),
		DurationSec: t.Duration().Seconds(),
	}, nil
}
