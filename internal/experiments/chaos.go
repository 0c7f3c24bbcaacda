package experiments

import (
	"fmt"
	"time"

	"bass/internal/apps/camera"
	"bass/internal/cluster"
	"bass/internal/core"
	"bass/internal/faults"
	"bass/internal/mesh"
	"bass/internal/obs"
	"bass/internal/scheduler"
)

// ChaosResult summarises one seeded fault-storm run: how the orchestrator
// detected crashes, re-placed stranded components, and what the workloads
// lost while it did.
type ChaosResult struct {
	Horizon time.Duration
	// EventCounts tallies the generated fault schedule by type.
	EventCounts []struct {
		Type  faults.EventType
		Count int
	}
	Report core.RecoveryReport
	// Availability is the fraction of per-second samples where the pair
	// stream achieved ≥99% of its demanded rate.
	Availability float64
	// MeanGoodput is the pair's mean achieved/required fraction.
	MeanGoodput float64
	// FailedTransfers counts in-flight transfers killed by topology faults.
	FailedTransfers int
	// FramesPublished and FramesLost are the camera pipeline's request
	// counters: frames the source emitted and frames that never produced an
	// annotated output (dropped at a dead stage or failed in transit).
	FramesPublished int
	FramesLost      int
	Migrations      int
	// JournalSummary is the decision journal rolled up by event type
	// ("type:count ..."), identical for equal seeds.
	JournalSummary string
}

// RunChaos executes the chaos scenario: a camera pipeline plus an 8 Mbps
// component pair on a four-node full mesh, with a seeded Poisson storm of
// node crashes, link flaps, and probe-loss windows injected over the run.
// Failure detection (3 failed probe sweeps at 30 s intervals) and failover
// with bounded-retry backoff are armed; the result reports MTTR,
// availability, and requests lost. Equal seeds yield identical results.
func RunChaos(seed int64, horizon time.Duration) (ChaosResult, error) {
	if horizon == 0 {
		horizon = 20 * time.Minute
	}
	names := []string{"n1", "n2", "n3", "n4"}
	topo := mesh.FullMesh(names, 25, 3*time.Millisecond, horizon+time.Minute)
	nodes := make([]cluster.Node, len(names))
	for i, n := range names {
		nodes[i] = cluster.Node{Name: n, CPU: 16, MemoryMB: 16384}
	}
	sim, err := core.NewSimulation(topo, nodes, seed, core.Config{
		Policy:            scheduler.NewBass(scheduler.HeuristicBFS),
		EnableMigration:   true,
		MonitorInterval:   30 * time.Second,
		MigrationDowntime: 5 * time.Second,
	})
	if err != nil {
		return ChaosResult{}, err
	}
	defer sim.Close()
	journal := obs.NewJournal(0)
	sim.AttachObservability(journal, nil)

	cam, err := camera.New(camera.Config{})
	if err != nil {
		return ChaosResult{}, err
	}
	if _, err := sim.Orch.Deploy("camera", cam); err != nil {
		return ChaosResult{}, err
	}
	pair := newPairApp("pair", 8, "", 2)
	if _, err := sim.Orch.Deploy("pair", pair); err != nil {
		return ChaosResult{}, err
	}

	sched := faults.Generate(topo, faults.GeneratorConfig{
		Seed:                    seed,
		Horizon:                 horizon,
		NodeCrashesPerHour:      6,
		MeanNodeDowntime:        2 * time.Minute,
		LinkFlapsPerHour:        6,
		MeanLinkDowntime:        30 * time.Second,
		ProbeLossWindowsPerHour: 2,
		MeanProbeLossWindow:     time.Minute,
	})
	if _, err := sim.InjectFaults(sched); err != nil {
		return ChaosResult{}, err
	}
	if err := sim.Run(horizon); err != nil {
		return ChaosResult{}, err
	}

	res := ChaosResult{
		Horizon:         horizon,
		EventCounts:     sched.Counts(),
		Report:          sim.Orch.RecoveryReport(),
		MeanGoodput:     pair.Goodput().Mean(),
		FailedTransfers: sim.Net.FailedTransfers(),
		Migrations:      len(sim.Orch.Migrations()),
		JournalSummary:  obs.Summarize(journal.Events()),
	}
	published, _, _, dropped := cam.Counters()
	res.FramesPublished = published
	res.FramesLost = dropped
	pts := pair.Goodput().Points()
	if len(pts) > 0 {
		ok := 0
		for _, p := range pts {
			if p.Value >= 0.99 {
				ok++
			}
		}
		res.Availability = float64(ok) / float64(len(pts))
	}
	return res, nil
}

// Table renders the recovery metrics.
func (r ChaosResult) Table() Table {
	var events string
	for i, c := range r.EventCounts {
		if i > 0 {
			events += " "
		}
		events += fmt.Sprintf("%s:%d", c.Type, c.Count)
	}
	rows := [][]string{
		{"fault events", events},
		{"node-down detections", fmt.Sprintf("%d", len(r.Report.Detections))},
		{"failovers", fmt.Sprintf("%d (%d via queue)", len(r.Report.Failovers), r.queuedFailovers())},
		{"queued at end", fmt.Sprintf("%d", r.Report.QueuedNow)},
		{"MTTR mean", fmt.Sprintf("%.1fs", r.Report.MTTRMean.Seconds())},
		{"MTTR max", fmt.Sprintf("%.1fs", r.Report.MTTRMax.Seconds())},
		{"pair availability", f2(r.Availability)},
		{"pair mean goodput", f2(r.MeanGoodput)},
		{"transfers failed", fmt.Sprintf("%d", r.FailedTransfers)},
		{"frames lost", fmt.Sprintf("%d of %d", r.FramesLost, r.FramesPublished)},
		{"migrations", fmt.Sprintf("%d", r.Migrations)},
		{"journal", r.JournalSummary},
	}
	return Table{
		Title: fmt.Sprintf("Chaos: seeded fault storm over %s (crash detect K=3 × 30 s probes, failover w/ backoff)",
			r.Horizon),
		Header: []string{"metric", "value"},
		Rows:   rows,
	}
}

func (r ChaosResult) queuedFailovers() int {
	n := 0
	for _, fo := range r.Report.Failovers {
		if fo.FromQueue {
			n++
		}
	}
	return n
}

func init() {
	register("chaos", func(p Params) ([]Table, error) {
		r, err := RunChaos(p.Seed, p.Horizon(20*time.Minute))
		if err != nil {
			return nil, err
		}
		return []Table{r.Table()}, nil
	})
}
