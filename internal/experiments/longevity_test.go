package experiments

import (
	"bytes"
	"testing"
	"time"

	"bass/internal/obs"
)

// TestLongevityReconvergesAfterEveryWave is the PR's longevity acceptance: a
// multi-wave fault storm with the reconciler enabled must re-converge in the
// quiet half of every wave, end fully converged with zero outstanding drift,
// and keep per-wave migration thrash bounded by the action budget rather than
// growing with the storm.
func TestLongevityReconvergesAfterEveryWave(t *testing.T) {
	res, events, err := runLongevity(1, 40*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Waves) != longevityWaves {
		t.Fatalf("got %d wave snapshots, want %d", len(res.Waves), longevityWaves)
	}
	for _, w := range res.Waves {
		if !w.Converged || w.Outstanding != 0 {
			t.Errorf("wave %d did not re-converge: converged=%t outstanding=%d",
				w.Wave, w.Converged, w.Outstanding)
		}
	}
	if !res.FinalConverged || res.FinalOutstanding != 0 {
		t.Fatalf("soak ended unconverged: %d drifts outstanding", res.FinalOutstanding)
	}
	if res.DriftsSeen == 0 {
		t.Fatal("storm produced no drift at all — the scenario is not exercising the reconciler")
	}
	if res.ConvergeEpisodes == 0 {
		t.Fatal("no converge episodes recorded")
	}
	// Thrash bound: a wave's actions stay within a small multiple of the
	// drift it caused — re-placements, not restart loops.
	if res.MaxWaveActions > 4*res.DriftsSeen+8 {
		t.Fatalf("wave actions %d look like thrash (drifts seen %d)",
			res.MaxWaveActions, res.DriftsSeen)
	}
	if res.Report.QueuedNow != 0 {
		t.Fatalf("%d drift records still open at the end", res.Report.QueuedNow)
	}

	// Causal integrity: every drift event's cause chain must resolve to
	// ground truth — a probe sample or an injected fault.
	n, err := obs.CheckCauses(events)
	if err != nil {
		t.Fatal(err)
	}
	if n.Drifts == 0 {
		t.Fatal("journal holds no reconcile_drift events")
	}
}

// TestLongevityJournalGolden pins the determinism contract for the soak: the
// seed-7 decision journal equals its golden byte for byte (see
// golden_test.go).
func TestLongevityJournalGolden(t *testing.T) {
	_, events, err := runLongevity(7, 40*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	j := obs.NewJournal(0)
	for _, ev := range events {
		j.Append(ev)
	}
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	pinDigest(t, "longevity journal", buf.String(),
		"b6e8051d2d0f200f972629e40db408462e5d34b937b927d28ef99ed8a7310db9")
}
