package trace

import "time"

// cpRun is one run of equal consecutive samples: the sample index where the
// run starts and the value it holds.
type cpRun struct {
	idx int
	val float64
}

// changePoints returns the run-length encoding of the samples. A level-built
// trace carries it from construction; a dense trace builds it from Mbps and
// memoizes it on first use. The index is derived state: it is built
// lazily by whichever goroutine first calls NextChangeAfter, so a Trace must
// not be shared across goroutines while unindexed (simnet pre-builds the
// index for every link trace when a network starts; the usual
// one-topology-per-engine construction never shares traces anyway).
func (t *Trace) changePoints() []cpRun {
	if t.cpBuilt {
		return t.cp
	}
	runs := make([]cpRun, 0, 8)
	for i, v := range t.Mbps {
		if i == 0 || v != runs[len(runs)-1].val {
			runs = append(runs, cpRun{idx: i, val: v})
		}
	}
	t.cp = runs
	t.cpBuilt = true
	return runs
}

// BuildChangeIndex forces construction of the change-point index now, so
// later NextChangeAfter calls are read-only and safe to issue from code that
// shares the trace.
func (t *Trace) BuildChangeIndex() { t.changePoints() }

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
	runs := t.changePoints()
	if len(runs) <= 1 {
		return 0, false // constant (or empty): no boundaries, even across wrap
	}
	period := t.Duration()
	if d < 0 {
		return time.Duration(runs[1].idx) * t.Step, true
	}
	cycle := d / period
	pos := d % period
	base := cycle * period
	for _, r := range runs[1:] {
		if b := time.Duration(r.idx) * t.Step; b > pos {
			return base + b, true
		}
	}
	// Past the last boundary of this cycle. If the trace ends on a different
	// value than it starts with, the wrap itself is a change at the cycle
	// edge; otherwise the final run merges with the first across the wrap and
	// the next boundary is the second run of the following cycle.
	last := runs[len(runs)-1].val
	if last != runs[0].val {
		return base + period, true
	}
	return base + period + time.Duration(runs[1].idx)*t.Step, true
}
