//go:build !race

package slo

import (
	"testing"
	"time"
)

// bestTick is the fastest of 15 timed quiet ticks on the bench fixture.
func bestTick(t *testing.T, f *tickBench) time.Duration {
	best := time.Duration(1 << 62)
	for trial := 0; trial < 15; trial++ {
		f.epoch(func(tick func()) {
			start := time.Now()
			tick()
			if d := time.Since(start); d < best {
				best = d
			}
		})
	}
	if f.ev.Firing() != 0 {
		t.Fatalf("%d alerts firing on an all-good history", f.ev.Firing())
	}
	return best
}

// TestTickCostIgnoresHistory is the evaluator-level complexity pin: once
// every window is full (130 epochs cover the 1 h budget window), a tick
// costs the same however much more history the store retains — not
// O(history). Reading through selector-taking store calls with a full-ring
// walk made the 1,000-epoch tick several times dearer. Best of several
// timings per side; the bound is 2×. Excluded from -race runs.
func TestTickCostIgnoresHistory(t *testing.T) {
	full := bestTick(t, newTickBench(t, 100, 40, 130, time.Hour))
	long := bestTick(t, newTickBench(t, 100, 40, 1000, time.Hour))
	t.Logf("101-spec tick: %v at 130 epochs retained, %v at 1000", full, long)
	if long > 2*full {
		t.Errorf("Tick costs %v with 1000 epochs retained vs %v with 130: the tick must not scale with history", long, full)
	}
}

// TestTickCostIgnoresWindowLength pins the running window counts: over the
// same 3,000 epochs, specs with a 24 h budget window (2,880 epochs) tick
// within 2× of specs with a 1 h one (120 epochs) — O(specs × windows), not
// O(samples in the window), which a fold of the store's slo_good would cost.
// Best of several timings per side. Excluded from -race runs.
func TestTickCostIgnoresWindowLength(t *testing.T) {
	hour := bestTick(t, newTickBench(t, 100, 40, 3000, time.Hour))
	day := bestTick(t, newTickBench(t, 100, 40, 3000, 24*time.Hour))
	t.Logf("101-spec tick: %v with a 1h budget window, %v with 24h", hour, day)
	if day > 2*hour {
		t.Errorf("Tick costs %v with a 24h window vs %v with 1h: the tick must not scale with window length", day, hour)
	}
}
