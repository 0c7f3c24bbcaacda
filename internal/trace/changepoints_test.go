package trace

import (
	"testing"
	"time"
)

func TestNextChangeAfterConstantTrace(t *testing.T) {
	tr := Constant("flat", time.Second, 25, 60)
	for _, d := range []time.Duration{-time.Second, 0, 30 * time.Second, 2 * time.Hour} {
		if at, ok := tr.NextChangeAfter(d); ok {
			t.Errorf("constant trace reported change at %v after %v", at, d)
		}
	}
}

func TestNextChangeAfterSingleSample(t *testing.T) {
	tr := fromSamples("one", time.Second, 10)
	if at, ok := tr.NextChangeAfter(0); ok {
		t.Errorf("single-sample trace reported change at %v", at)
	}
	empty := &Trace{Name: "none", Step: time.Second}
	if _, ok := empty.NextChangeAfter(0); ok {
		t.Error("empty trace reported a change")
	}
}

func TestNextChangeAfterStepBoundaries(t *testing.T) {
	// Levels landing exactly on Step multiples: 200 until 20s, 60 until 40s,
	// 200 until the 60s wrap.
	tr := StepTrace("step", time.Second, time.Minute, []Level{
		{From: 0, Mbps: 200},
		{From: 20 * time.Second, Mbps: 60},
		{From: 40 * time.Second, Mbps: 200},
	})
	cases := []struct {
		after time.Duration
		want  time.Duration
	}{
		{-5 * time.Second, 20 * time.Second},
		{0, 20 * time.Second},
		{19*time.Second + 999*time.Millisecond, 20 * time.Second},
		{20 * time.Second, 40 * time.Second}, // strictly after: skip the boundary we sit on
		{40 * time.Second, 80 * time.Second}, // last run wraps into the first: next cycle's 20s
		{59 * time.Second, 80 * time.Second},
	}
	for _, c := range cases {
		got, ok := tr.NextChangeAfter(c.after)
		if !ok || got != c.want {
			t.Errorf("NextChangeAfter(%v) = %v, %v; want %v", c.after, got, ok, c.want)
		}
	}
	// Every reported change-point must actually change the sampled value.
	for d := -time.Second; d < 3*time.Minute; d += 500 * time.Millisecond {
		at, ok := tr.NextChangeAfter(d)
		if !ok {
			t.Fatalf("step trace reported no change after %v", d)
		}
		if tr.At(at) == tr.At(at-time.Nanosecond) {
			t.Fatalf("change at %v does not change value (%v)", at, tr.At(at))
		}
	}
}

func TestNextChangeAfterWrapBoundary(t *testing.T) {
	// Trace ends on a different value than it starts: the wrap itself is a
	// change-point at every cycle edge.
	tr := fromSamples("saw", time.Second, 10, 10, 30)
	got, ok := tr.NextChangeAfter(2 * time.Second)
	if !ok || got != 3*time.Second {
		t.Fatalf("NextChangeAfter(2s) = %v, %v; want 3s (wrap edge)", got, ok)
	}
	// Deep into a later cycle: offsets stay absolute.
	got, ok = tr.NextChangeAfter(3*time.Minute + 2*time.Second + time.Millisecond)
	if !ok || got != 3*time.Minute+3*time.Second {
		t.Fatalf("NextChangeAfter(3m2.001s) = %v, %v; want 3m3s", got, ok)
	}
}

func TestNextChangeAfterMatchesAtScan(t *testing.T) {
	// Cross-check against brute force At sampling on a sub-second-step trace.
	tr := fromSamples("fine", 250*time.Millisecond, 5, 5, 9, 9, 9, 2, 5, 5)
	for d := time.Duration(0); d < 3*tr.Duration(); d += 100 * time.Millisecond {
		got, ok := tr.NextChangeAfter(d)
		if !ok {
			t.Fatalf("no change after %v", d)
		}
		// Brute force: scan forward at fine granularity.
		want := time.Duration(-1)
		ref := tr.At(d)
		for s := d + 50*time.Millisecond; s < d+3*tr.Duration(); s += 50 * time.Millisecond {
			if tr.At(s) != ref {
				want = s
				break
			}
		}
		// got must be in (d, want] and be a real change from the prior sample.
		if got <= d || got > want {
			t.Fatalf("NextChangeAfter(%v) = %v, want in (%v, %v]", d, got, d, want)
		}
		if tr.At(got) == tr.At(got-time.Nanosecond) {
			t.Fatalf("reported non-change at %v", got)
		}
	}
}
