//go:build !race

package metricstore

import (
	"testing"
	"time"
)

// TestAggOverCostIgnoresHistory is the complexity pin for window reads: the
// same ten-sample window costs about the same whether the series retains 10
// epochs or 1,000 (a full-ring walk made it ~100× dearer). Best of several
// timings per side keeps scheduler noise out; the bound is 2×. Excluded from
// -race runs, where timings mean nothing.
func TestAggOverCostIgnoresHistory(t *testing.T) {
	perOp := func(epochs int) time.Duration {
		s, now := historyStore(50, epochs)
		sel := s.Select("slo_good", map[string]string{"slo": "goodput/app0025"})
		const calls = 5000
		best := time.Duration(1 << 62)
		for trial := 0; trial < 25; trial++ {
			start := time.Now()
			for i := 0; i < calls; i++ {
				aggSink, _ = sel.AggOver(now, historyWindow)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		if aggSink.Count != 10 {
			t.Fatalf("window holds %d samples at %d epochs, want 10", aggSink.Count, epochs)
		}
		return best / calls
	}
	short, long := perOp(10), perOp(1000)
	t.Logf("ten-sample AggOver: %v at 10 epochs retained, %v at 1000", short, long)
	if long > 2*short {
		t.Errorf("AggOver costs %v with 1000 epochs retained vs %v with 10: window reads must not scale with history", long, short)
	}
}
