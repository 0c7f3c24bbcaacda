package metrics

import (
	"sort"
	"time"
)

// Point is one timestamped observation in a time series.
type Point struct {
	At    time.Duration // offset from the start of the experiment
	Value float64
}

// TimeSeries is an append-only sequence of timestamped values. Appends must
// be in non-decreasing time order; out-of-order appends are inserted at the
// right position (O(n) in the worst case) so consumers can always assume a
// sorted series.
type TimeSeries struct {
	points []Point
}

// NewTimeSeries returns a series with room for hint points.
func NewTimeSeries(hint int) *TimeSeries {
	return &TimeSeries{points: make([]Point, 0, hint)}
}

// Append records a value at the given offset.
func (ts *TimeSeries) Append(at time.Duration, v float64) {
	p := Point{At: at, Value: v}
	n := len(ts.points)
	if n == 0 || ts.points[n-1].At <= at {
		ts.points = append(ts.points, p)
		return
	}
	idx := sort.Search(n, func(i int) bool { return ts.points[i].At > at })
	ts.points = append(ts.points, Point{})
	copy(ts.points[idx+1:], ts.points[idx:])
	ts.points[idx] = p
}

// Len reports the number of points.
func (ts *TimeSeries) Len() int { return len(ts.points) }

// Points returns a copy of the series.
func (ts *TimeSeries) Points() []Point {
	out := make([]Point, len(ts.points))
	copy(out, ts.points)
	return out
}

// At returns the value in effect at offset t: the most recent point at or
// before t. ok is false if t precedes the first point.
func (ts *TimeSeries) At(t time.Duration) (v float64, ok bool) {
	idx := sort.Search(len(ts.points), func(i int) bool { return ts.points[i].At > t })
	if idx == 0 {
		return 0, false
	}
	return ts.points[idx-1].Value, true
}

// Mean reports the arithmetic mean of the point values (not time-weighted).
func (ts *TimeSeries) Mean() float64 {
	if len(ts.points) == 0 {
		return 0
	}
	var s float64
	for _, p := range ts.points {
		s += p.Value
	}
	return s / float64(len(ts.points))
}
