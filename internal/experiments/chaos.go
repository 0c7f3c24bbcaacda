package experiments

import (
	"fmt"
	"time"

	"bass/internal/cluster"
	"bass/internal/core"
	"bass/internal/faults"
	"bass/internal/mesh"
	"bass/internal/obs"
	"bass/internal/scenario"
)

// chaosResult summarises one seeded fault-storm run: how the orchestrator
// detected crashes, re-placed stranded components, and what the workloads
// lost while it did.
type chaosResult struct {
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

// stormRig is the fault-storm testbed, shared by chaos and longevity: a
// camera pipeline plus pair (an 8 Mbps component pair, deployed second) on
// a full mesh of 16-core nodes joined by 25 Mbps links, BFS placement with
// migration, 30 s probe sweeps (crash detection after 3 failed sweeps), a
// 5 s migration downtime and the decision journal attached. Those jobs set
// the node count, faults and reconciliation.
func stormRig(nodes int, seed int64, horizon time.Duration, pair *pairApp) scenario.Spec {
	names := make([]string, nodes)
	cl := make([]cluster.Node, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i+1)
		cl[i] = cluster.Node{Name: names[i], CPU: 16, MemoryMB: 16384}
	}
	return scenario.Spec{
		Topo:               mesh.FullMesh(names, 25, 3*time.Millisecond, horizon+time.Minute),
		Nodes:              cl,
		App:                "camera",
		Deploy:             []core.Workload{pair},
		Scheduler:          "bfs",
		Migration:          true,
		MonitorIntervalSec: 30,
		MigrationDowntime:  5 * time.Second,
		Journal:            true,
		HorizonSec:         int(horizon / time.Second),
		Seed:               seed,
	}
}

// stormFaults is the rig's fault generator over [0, horizon): node crashes
// at crashesPerHour, 6 link flaps and 2 probe-loss windows per hour.
func stormFaults(topo *mesh.Topology, seed int64, horizon time.Duration, crashesPerHour float64) *faults.Schedule {
	return faults.Generate(topo, faults.GeneratorConfig{
		Seed:                    seed,
		Horizon:                 horizon,
		NodeCrashesPerHour:      crashesPerHour,
		MeanNodeDowntime:        2 * time.Minute,
		LinkFlapsPerHour:        6,
		MeanLinkDowntime:        30 * time.Second,
		ProbeLossWindowsPerHour: 2,
		MeanProbeLossWindow:     time.Minute,
	})
}

// runChaos executes the chaos scenario: a seeded Poisson storm of node
// crashes, link flaps, and probe-loss windows injected over a four-node
// stormRig. Failure detection and failover with bounded-retry backoff are
// armed; the result reports MTTR, availability, and requests lost. Equal
// seeds yield identical results.
func runChaos(seed int64, horizon time.Duration) (chaosResult, error) {
	if horizon == 0 {
		horizon = 20 * time.Minute
	}
	pair := newPairApp("pair", 8, "", 2)
	spec := stormRig(4, seed, horizon, pair)
	spec.Faults = stormFaults(spec.Topo, seed, horizon, 6).Events
	r, err := complete(spec)
	if err != nil {
		return chaosResult{}, err
	}

	res := chaosResult{
		Horizon:         horizon,
		EventCounts:     r.Faults.Counts(),
		Report:          r.Sim.Orch.RecoveryReport(),
		MeanGoodput:     pair.Goodput().Mean(),
		FailedTransfers: r.Sim.Net.FailedTransfers(),
		Migrations:      len(r.Sim.Orch.Migrations()),
		JournalSummary:  obs.Summarize(r.Journal.Events()),
	}
	published, _, _, dropped := r.Camera.Counters()
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
func (r chaosResult) Table() Table {
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

func (r chaosResult) queuedFailovers() int {
	n := 0
	for _, fo := range r.Report.Failovers {
		if fo.FromQueue {
			n++
		}
	}
	return n
}
