//go:build !race

package slo

import (
	"testing"
	"time"
)

// TestTickCostIgnoresHistory is the evaluator-level complexity pin: once
// every window is full (130 epochs cover the 1 h budget window), a tick
// costs the same however much more history the store retains — O(window),
// not O(history). Reading through selector-taking store calls with a
// full-ring walk made the 1,000-epoch tick several times dearer. Best of
// several timings per side; the bound is 2×. Excluded from -race runs.
func TestTickCostIgnoresHistory(t *testing.T) {
	perTick := func(epochs int) time.Duration {
		f := newTickBench(t, 100, 40, epochs)
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
	full, long := perTick(130), perTick(1000)
	t.Logf("101-spec tick: %v at 130 epochs retained, %v at 1000", full, long)
	if long > 2*full {
		t.Errorf("Tick costs %v with 1000 epochs retained vs %v with 130: the tick must not scale with history", long, full)
	}
}
