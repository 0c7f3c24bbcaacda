// Package trace models time-varying link bandwidth. It provides the Trace
// type (a 1 Hz-or-finer capacity series), CSV persistence compatible with
// exported testbed measurements, summary statistics, and a synthetic
// generator calibrated to the CityLab traces characterised in the BASS paper
// (Fig 2): a mean-reverting AR(1) process with occasional deep "shadowing"
// dips that model trucks, foliage, and interference bursts.
package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"bass/internal/metrics"
)

// ErrEmptyTrace is returned by operations that need at least one sample.
var ErrEmptyTrace = errors.New("trace: empty trace")

// Trace is a time-ordered series of link capacity samples in bits/second,
// spaced Step apart starting at offset zero.
type Trace struct {
	// Name identifies the link the trace was measured on, e.g. "node3-node4".
	Name string
	// Step is the sampling interval.
	Step time.Duration
	// Mbps holds capacity samples in megabits per second. It is empty on a
	// level-built trace (StepTrace), which stores its runs instead; Samples
	// reads the samples of either kind.
	Mbps []float64

	// cp is the change-point index (see changepoints.go): the run-length
	// encoding of the samples. A dense trace derives it from Mbps lazily;
	// mutating Mbps after the index is built is not supported (traces are
	// treated as immutable once driving a simulation). On a level-built
	// trace it is the only copy of the samples, and n is their count (0 on
	// a dense trace).
	cp      []cpRun
	cpBuilt bool
	n       int
}

// New returns an empty trace with the given name and sampling step.
func New(name string, step time.Duration) *Trace {
	return &Trace{Name: name, Step: step}
}

// Constant returns a trace with n samples all equal to mbps.
func Constant(name string, step time.Duration, mbps float64, n int) *Trace {
	t := &Trace{Name: name, Step: step, Mbps: make([]float64, n)}
	for i := range t.Mbps {
		t.Mbps[i] = mbps
	}
	return t
}

// Len reports the number of samples.
func (t *Trace) Len() int {
	if t.n > 0 {
		return t.n
	}
	return len(t.Mbps)
}

// Duration reports the time covered by the trace.
func (t *Trace) Duration() time.Duration {
	return time.Duration(t.Len()) * t.Step
}

// Samples returns the capacity samples in Mbps: Mbps itself on a dense
// trace, a fresh slice expanded from the runs on a level-built one. Callers
// must not modify the result.
func (t *Trace) Samples() []float64 {
	if t.n == 0 {
		return t.Mbps
	}
	out := make([]float64, t.n)
	for k, r := range t.cp {
		end := t.n
		if k+1 < len(t.cp) {
			end = t.cp[k+1].idx
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
	n := t.Len()
	if n == 0 {
		return 0
	}
	idx := 0
	if d >= 0 {
		idx = int(d/t.Step) % n
	}
	if t.n == 0 {
		return t.Mbps[idx]
	}
	runs := t.cp
	k := sort.Search(len(runs), func(k int) bool { return runs[k].idx > idx })
	return runs[k-1].val
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

// Scale returns a dense copy of the trace with every sample multiplied by f.
func (t *Trace) Scale(f float64) *Trace {
	in := t.Samples()
	out := &Trace{Name: t.Name, Step: t.Step, Mbps: make([]float64, len(in))}
	for i, v := range in {
		out.Mbps[i] = v * f
	}
	return out
}

// Clip returns a dense copy with every sample clamped to [lo, hi].
func (t *Trace) Clip(lo, hi float64) *Trace {
	in := t.Samples()
	out := &Trace{Name: t.Name, Step: t.Step, Mbps: make([]float64, len(in))}
	for i, v := range in {
		out.Mbps[i] = math.Min(hi, math.Max(lo, v))
	}
	return out
}

// Slice returns the sub-trace covering [from, to).
func (t *Trace) Slice(from, to time.Duration) (*Trace, error) {
	if t.Step <= 0 {
		return nil, fmt.Errorf("trace: invalid step %v", t.Step)
	}
	lo := int(from / t.Step)
	hi := int(to / t.Step)
	if lo < 0 || hi > t.Len() || lo > hi {
		return nil, fmt.Errorf("trace: slice [%v,%v) out of range for %v samples", from, to, t.Len())
	}
	out := &Trace{Name: t.Name, Step: t.Step, Mbps: make([]float64, hi-lo)}
	copy(out.Mbps, t.Samples()[lo:hi])
	return out, nil
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
	out := &Trace{Name: t.Name, Step: t.Step, Mbps: make([]float64, len(in))}
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
		out.Mbps[i] = sum / float64(n)
	}
	return out
}

// TimeSeries converts the trace to a metrics.TimeSeries.
func (t *Trace) TimeSeries() *metrics.TimeSeries {
	in := t.Samples()
	ts := metrics.NewTimeSeries(len(in))
	for i, v := range in {
		ts.Append(time.Duration(i)*t.Step, v)
	}
	return ts
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

// Summarize computes the trace summary. It returns ErrEmptyTrace for an
// empty trace.
func (t *Trace) Summarize() (Summary, error) {
	xs := t.Samples()
	if len(xs) == 0 {
		return Summary{}, ErrEmptyTrace
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
