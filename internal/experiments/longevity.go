package experiments

import (
	"fmt"
	"time"

	"bass/internal/core"
	"bass/internal/faults"
	"bass/internal/obs"
	"bass/internal/scenario"
)

// longevityWave snapshots the reconciler just before a storm wave's quiet
// period ends — the moment the system must have re-converged.
type longevityWave struct {
	Wave int
	// Converged and Outstanding are the reconciler's state at the snapshot.
	Converged   bool
	Outstanding int
	// Actions is the cumulative reconcile action count at the snapshot; the
	// per-wave delta bounds migration thrash.
	Actions int
}

// longevityResult summarises a multi-wave fault-storm soak: repeated seeded
// storms separated by quiet periods, with the declarative reconciler (not the
// one-shot retry path) responsible for driving observed placement back to the
// desired spec after every wave — without ever restarting a component from
// scratch.
type longevityResult struct {
	Horizon time.Duration
	// FaultEvents is the merged schedule's event count across all waves.
	FaultEvents int
	Waves       []longevityWave
	// FinalConverged and FinalOutstanding are the reconciler's state at the
	// end of the run; a healthy soak ends converged with zero drift.
	FinalConverged   bool
	FinalOutstanding int
	DriftsSeen       int
	ActionsTotal     int
	Sheds            int
	Restores         int
	// ConvergeEpisodes counts closed drift→converged episodes.
	ConvergeEpisodes int
	// MaxWaveActions is the largest per-wave action delta — the thrash bound.
	MaxWaveActions int
	Report         core.RecoveryReport
	// JournalSummary rolls up the decision journal by event type; identical
	// for equal seeds.
	JournalSummary string
}

// longevityWaves is the number of storm waves a soak always runs.
const longevityWaves = 4

// runLongevity executes the longevity soak on a six-node stormRig with the
// reconciler enabled: four storm waves of generated chaos, each clamped to
// the first half of its wave so the second half is quiet. Equal seeds yield
// identical results. It also returns the raw decision journal, so tests can
// check its cause chains and pin its bytes.
func runLongevity(seed int64, horizon time.Duration) (longevityResult, []obs.Event, error) {
	if horizon == 0 {
		horizon = 80 * time.Minute
	}
	waveLen := horizon / longevityWaves
	spec, err := longevitySpec(seed, horizon)
	if err != nil {
		return longevityResult{}, nil, err
	}
	r, err := scenario.Build(spec)
	if err != nil {
		return longevityResult{}, nil, err
	}
	sim := r.Sim
	defer sim.Close()

	rec := sim.Orch.Reconciler()
	snaps := make([]longevityWave, longevityWaves)
	for w := 0; w < longevityWaves; w++ {
		w := w
		sim.Eng.At(time.Duration(w+1)*waveLen-time.Second, func() {
			snaps[w] = longevityWave{
				Wave:        w + 1,
				Converged:   rec.Converged(),
				Outstanding: rec.OutstandingDrift(),
				Actions:     rec.ActionsTotal(),
			}
		})
	}
	if err := sim.Run(horizon); err != nil {
		return longevityResult{}, nil, err
	}

	res := longevityResult{
		Horizon:          horizon,
		FaultEvents:      len(r.Faults.Events),
		Waves:            snaps,
		FinalConverged:   rec.Converged(),
		FinalOutstanding: rec.OutstandingDrift(),
		DriftsSeen:       rec.DriftsSeen(),
		ActionsTotal:     rec.ActionsTotal(),
		Sheds:            rec.Sheds(),
		Restores:         rec.Restores(),
		ConvergeEpisodes: len(rec.Converges()),
		Report:           sim.Orch.RecoveryReport(),
		JournalSummary:   obs.Summarize(r.Journal.Events()),
	}
	prev := 0
	for _, s := range snaps {
		if d := s.Actions - prev; d > res.MaxWaveActions {
			res.MaxWaveActions = d
		}
		prev = s.Actions
	}
	return res, r.Journal.Events(), nil
}

// longevitySpec is a six-node stormRig (migration on, so the reconciler
// runs) with longevityWaves storm waves as explicit faults. Each wave draws its own
// seeded storm, 8 crashes an hour, over the first half of the wave and is
// clamped so every window closes inside it: the wave's quiet half, room for
// detection and re-convergence, starts with all elements recovered. Clamped
// waves occupy disjoint time ranges, so the merged schedule still passes
// window validation.
func longevitySpec(seed int64, horizon time.Duration) (scenario.Spec, error) {
	waveLen := horizon / longevityWaves
	storm := waveLen / 2
	spec := stormRig(6, seed, horizon)
	topo, err := spec.Mesh()
	if err != nil {
		return scenario.Spec{}, err
	}
	for w := 0; w < longevityWaves; w++ {
		wave := faults.Generate(topo, stormChaos(8).Generator(seed+int64(w+1)*1000, storm)).Clamp(storm)
		base := time.Duration(w) * waveLen
		for i := range wave.Events {
			wave.Events[i].AtSec += base.Seconds()
		}
		spec.Faults = append(spec.Faults, wave.Events...)
	}
	return spec, nil
}

// Table renders the soak's per-wave convergence and the run totals.
func (r longevityResult) Table() Table {
	rows := [][]string{
		{"fault events", fmt.Sprintf("%d over %d waves", r.FaultEvents, len(r.Waves))},
	}
	for _, w := range r.Waves {
		rows = append(rows, []string{
			fmt.Sprintf("wave %d converged", w.Wave),
			fmt.Sprintf("%t (drift %d, actions %d)", w.Converged, w.Outstanding, w.Actions),
		})
	}
	rows = append(rows,
		[]string{"final converged", fmt.Sprintf("%t (drift %d)", r.FinalConverged, r.FinalOutstanding)},
		[]string{"drift episodes", fmt.Sprintf("%d seen, %d converged", r.DriftsSeen, r.ConvergeEpisodes)},
		[]string{"reconcile actions", fmt.Sprintf("%d total, %d max per wave", r.ActionsTotal, r.MaxWaveActions)},
		[]string{"sheds/restores", fmt.Sprintf("%d/%d", r.Sheds, r.Restores)},
		[]string{"node-down detections", fmt.Sprintf("%d", len(r.Report.Detections))},
		[]string{"failovers", fmt.Sprintf("%d", len(r.Report.Failovers))},
		[]string{"MTTR mean", fmt.Sprintf("%.1fs", r.Report.MTTRMean.Seconds())},
		[]string{"journal", r.JournalSummary},
	)
	return Table{
		Title: fmt.Sprintf("Longevity: %d reconcile-driven storm waves over %s (storm half, quiet half per wave)",
			len(r.Waves), r.Horizon),
		Header: []string{"metric", "value"},
		Rows:   rows,
	}
}
