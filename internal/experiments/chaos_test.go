package experiments

import (
	"reflect"
	"testing"
	"time"
)

// TestChaosDeterministic runs the chaos scenario twice with the same seed and
// requires byte-identical tables — the PR's reproducibility guarantee for
// fault injection.
func TestChaosDeterministic(t *testing.T) {
	r1, err := runChaos(7, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runChaos(7, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("chaos results differ:\n%+v\n%+v", r1, r2)
	}
	if s1, s2 := r1.Table().String(), r2.Table().String(); s1 != s2 {
		t.Errorf("rendered tables differ:\n%s\n%s", s1, s2)
	}
}

// TestChaosProducesRecoveryMetrics checks the scenario actually exercises the
// failure path: the seeded storm contains events, and any node-down verdict
// is matched by failovers or a queue entry.
func TestChaosProducesRecoveryMetrics(t *testing.T) {
	r, err := runChaos(7, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.EventCounts) == 0 {
		t.Fatal("generated schedule is empty; raise storm rates")
	}
	if r.Availability <= 0 || r.Availability > 1 {
		t.Errorf("availability = %v, want in (0,1]", r.Availability)
	}
	if r.MeanGoodput <= 0 {
		t.Errorf("mean goodput = %v", r.MeanGoodput)
	}
	for _, d := range r.Report.Detections {
		if d.Components < 0 {
			t.Errorf("detection %+v has negative component count", d)
		}
	}
	if len(r.Report.Detections) > 0 && r.Report.MTTRMean <= 0 &&
		r.Report.QueuedNow == 0 && len(r.Report.Failovers) > 0 {
		t.Errorf("failovers recorded but MTTR not: %+v", r.Report)
	}
}
