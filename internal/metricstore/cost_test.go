package metricstore

import "testing"

// TestAggOverCostIgnoresHistory is the complexity pin for window reads: the
// same ten-sample window walks exactly its ten samples whether the series
// retains 10 epochs or 1,000 (a full-ring walk takes in all 1,000).
func TestAggOverCostIgnoresHistory(t *testing.T) {
	for _, epochs := range []int{10, 1000} {
		s, now := historyStore(50, epochs)
		sel := s.Select("slo_good", map[string]string{"slo": "goodput/app0025"})
		before := s.SamplesVisited()
		agg, _ := sel.AggOver(now, historyWindow)
		if agg.Count != 10 {
			t.Fatalf("window holds %d samples at %d epochs, want 10", agg.Count, epochs)
		}
		if got := s.SamplesVisited() - before; got != 10 {
			t.Errorf("ten-sample AggOver walks %d samples with %d epochs retained, want 10", got, epochs)
		}
	}
}
