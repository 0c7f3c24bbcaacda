package trace

import (
	"sort"
	"time"
)

// run is one run of equal consecutive samples: the sample index where the
// run starts and the value it holds.
type run struct {
	idx int
	val float64
}

// add appends count samples of value v, extending the last run when v
// equals its value under ==. Every constructor builds its trace through it.
func (t *Trace) add(v float64, count int) {
	if count <= 0 {
		return
	}
	if len(t.runs) == 0 || v != t.runs[len(t.runs)-1].val {
		t.runs = append(t.runs, run{idx: t.n, val: v})
	}
	t.n += count
}

// runAfter returns the index of the first run starting after sample i, so
// run runAfter(i)-1 holds sample i. It is len(runs) when that is the last.
func (t *Trace) runAfter(i int) int {
	runs := t.runs
	return sort.Search(len(runs), func(k int) bool { return runs[k].idx > i })
}

// NextChangeAfter returns the earliest offset strictly after d at which the
// sampled capacity differs from the immediately preceding sample — the next
// point where At starts returning a new value. Offsets follow At's wrap
// semantics, so the returned offset may lie beyond Duration (the change-point
// of a later replay cycle). The second return is false when the trace never
// changes: constant, single-sample, or empty traces have no change-points.
//
// Offsets before zero behave like At: the first change after any negative d
// is the first run boundary of cycle zero.
func (t *Trace) NextChangeAfter(d time.Duration) (time.Duration, bool) {
	runs := t.runs
	if len(runs) <= 1 {
		return 0, false // constant (or empty): no boundaries, even across wrap
	}
	if d < 0 {
		return time.Duration(runs[1].idx) * t.Step, true
	}
	period := t.Duration()
	base := d / period * period
	// The first boundary b with b > d-base is the first run starting after
	// sample (d-base)/Step.
	if k := t.runAfter(int((d - base) / t.Step)); k < len(runs) {
		return base + time.Duration(runs[k].idx)*t.Step, true
	}
	// Past the last boundary of this cycle. If the trace ends on a different
	// value than it starts with, the wrap itself is a change at the cycle
	// edge; otherwise the final run merges with the first across the wrap and
	// the next boundary is the second run of the following cycle.
	if runs[len(runs)-1].val != runs[0].val {
		return base + period, true
	}
	return base + period + time.Duration(runs[1].idx)*t.Step, true
}
