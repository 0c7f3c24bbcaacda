package experiments

import (
	"testing"
	"time"
)

// TestAlertQualityScores pins the full two-hour scorecard at three seeds:
// every injected link outage is detected, every alert falls inside a (graced)
// fault window, and detection and repair-to-clear latencies are exact to the
// nanosecond. Both network drivers produced these cards when the driver was
// still an option here.
func TestAlertQualityScores(t *testing.T) {
	type card struct {
		FaultWindows, LinkWindows, Detected, AlertsFired, TruePositives int
		Precision, Recall                                               float64
		MTTD, DetectP50, DetectMax, MTTR                                time.Duration
	}
	for _, tc := range []struct {
		seed int64
		want card
	}{
		{42, card{14, 9, 9, 90, 90, 1, 1, 42179321466, 46954693248, 58803179405, 287834356635}},
		{43, card{15, 10, 10, 99, 99, 1, 1, 36593777396, 40609472000, 53693161795, 282712547373}},
		{44, card{13, 9, 9, 90, 90, 1, 1, 36782105428, 40074073151, 55071539073, 291853330586}},
	} {
		r, err := RunAlertQuality(AlertQualityOptions{Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		got := card{r.FaultWindows, r.LinkWindows, r.Detected, r.AlertsFired, r.TruePositives,
			r.Precision, r.Recall, r.MTTD, r.DetectP50, r.DetectMax, r.MTTR}
		if got != tc.want {
			t.Errorf("seed %d: scorecard\n got %+v\nwant %+v", tc.seed, got, tc.want)
		}
		if tc.seed == 42 {
			pinDigest(t, "alert quality table", r.Table().String(), "098b7aacc98421af901bc195901d1685eb1ea8e58630beac63c3a31e8bd34671")
		}
	}
}

// TestAlertQualityDifferential pins the rendered seed-7 scorecard of a
// 30-minute replay (two link windows, enough to score) to the bytes every net
// driver and shard count produced when those were options here (see
// golden_test.go).
func TestAlertQualityDifferential(t *testing.T) {
	r, err := RunAlertQuality(AlertQualityOptions{Seed: 7, Horizon: 30 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	pinDigest(t, "alert quality table", r.Table().String(),
		"68228d6689b3978717809fff2e9adbcf1b8eea8e9b96c7d439f144ad7284840d")
}

// TestAlertStormValid checks generated schedules against the window
// validator at several seeds: windows never overlap and always close before
// the horizon (detection, not truncation, decides the scores).
func TestAlertStormValid(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		sched := alertStorm(seed, 2*time.Hour)
		if len(sched.Events) == 0 {
			t.Fatalf("seed %d: empty storm", seed)
		}
		if err := sched.ValidateWindows(2 * time.Hour); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		for _, w := range sched.Windows(2 * time.Hour) {
			if w.End >= 2*time.Hour {
				t.Errorf("seed %d: window %v still open at horizon", seed, w)
			}
		}
	}
}
