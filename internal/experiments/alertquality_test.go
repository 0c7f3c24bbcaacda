package experiments

import (
	"testing"
	"time"
)

// aqOpts is the test-sized replay: 30 minutes fits two link windows and at
// most one probe-loss window, enough to score without a long run.
func aqOpts(seed int64, polling bool, shards int) AlertQualityOptions {
	return AlertQualityOptions{Seed: seed, Horizon: 30 * time.Minute, Polling: polling, Shards: shards}
}

// TestAlertQualityScores pins the full two-hour scorecard at three seeds on
// both net drivers: every injected link outage is detected, every alert falls
// inside a (graced) fault window, and detection and repair-to-clear latencies
// are exact to the nanosecond. Both drivers must produce the same card.
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
		for _, polling := range []bool{false, true} {
			r, err := RunAlertQuality(AlertQualityOptions{Seed: tc.seed, Polling: polling})
			if err != nil {
				t.Fatal(err)
			}
			got := card{r.FaultWindows, r.LinkWindows, r.Detected, r.AlertsFired, r.TruePositives,
				r.Precision, r.Recall, r.MTTD, r.DetectP50, r.DetectMax, r.MTTR}
			if got != tc.want {
				t.Errorf("seed %d polling=%v: scorecard\n got %+v\nwant %+v", tc.seed, polling, got, tc.want)
			}
		}
	}
}

// TestAlertQualityDifferential pins the determinism claim the slo gate
// checks mechanically: the scorecard is identical across both net drivers
// and shard counts at equal seeds.
func TestAlertQualityDifferential(t *testing.T) {
	base, err := RunAlertQuality(aqOpts(7, false, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := base.Table().String()
	for _, v := range []struct {
		polling bool
		shards  int
	}{{true, 1}, {false, 4}, {true, 4}} {
		r, err := RunAlertQuality(aqOpts(7, v.polling, v.shards))
		if err != nil {
			t.Fatal(err)
		}
		r.Polling = base.Polling // the driver name in the title is the one allowed difference
		if got := r.Table().String(); got != want {
			t.Errorf("polling=%v shards=%d: scorecard diverged\nwant:\n%s\ngot:\n%s", v.polling, v.shards, want, got)
		}
	}
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
