package slo

import (
	"testing"
	"time"
)

// tickWork is the work of one quiet tick: the ticks the trails' tails
// advance past and the store samples the SLI reads walk.
type tickWork struct{ tailSteps, samples uint64 }

// oneTick runs one epoch of the bench fixture and counts its tick's work.
func oneTick(t *testing.T, f *tickBench) tickWork {
	t.Helper()
	var w tickWork
	f.epoch(func(tick func()) {
		steps, samples := f.ev.tailSteps, f.store.SamplesVisited()
		tick()
		w = tickWork{f.ev.tailSteps - steps, f.store.SamplesVisited() - samples}
	})
	if f.ev.Firing() != 0 {
		t.Fatalf("%d alerts firing on an all-good history", f.ev.Firing())
	}
	return w
}

// quietTick is the work of one tick of the 101-spec fixture once every
// window is full: each of its four trails advances one tick, and each of the
// 140 SLI series (100 apps' goodput, 40 links' headroom) has one sample in
// the read window.
var quietTick = tickWork{tailSteps: 4, samples: 140}

// TestTickCostIgnoresHistory is the evaluator-level complexity pin: once
// every window is full (130 epochs cover the 1 h budget window), a tick does
// exactly the same work however much more history the store retains — not
// O(history). Reading through selector-taking store calls with a full-ring
// walk made the 1,000-epoch tick walk every retained sample.
func TestTickCostIgnoresHistory(t *testing.T) {
	for _, epochs := range []int{130, 1000} {
		if got := oneTick(t, newTickBench(t, 100, 40, epochs, time.Hour)); got != quietTick {
			t.Errorf("tick at %d epochs retained does %+v, want %+v", epochs, got, quietTick)
		}
	}
}

// TestTickCostIgnoresWindowLength pins the running window counts: over the
// same 3,000 epochs, specs with a 24 h budget window (2,880 epochs) tick
// with exactly the work of specs with a 1 h one (120 epochs) —
// O(specs × windows), not O(samples in the window), which a fold of the
// store's slo_good would cost.
func TestTickCostIgnoresWindowLength(t *testing.T) {
	for _, window := range []time.Duration{time.Hour, 24 * time.Hour} {
		if got := oneTick(t, newTickBench(t, 100, 40, 3000, window)); got != quietTick {
			t.Errorf("tick with a %v budget window does %+v, want %+v", window, got, quietTick)
		}
	}
}
