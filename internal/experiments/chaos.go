package experiments

import (
	"fmt"
	"time"

	"bass/internal/apps/stream"
	"bass/internal/cluster"
	"bass/internal/core"
	"bass/internal/faults"
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

// pair is the two-component stream of the paper's Fig 8: a producer
// streaming mbps to a consumer, each requesting cpu cores, pinned where
// pinSrc and pinDst name a node, with its goodput sampled each second
// (Run.Streams' Goodput).
func pair(name string, mbps float64, pinSrc, pinDst string, cpu float64) scenario.App {
	return scenario.App{Stream: &stream.Config{
		Name: name,
		Components: []stream.Component{
			{Name: "producer", CPU: cpu, Pin: pinSrc},
			{Name: "consumer", CPU: cpu, Pin: pinDst},
		},
		Edges:         []stream.Edge{{From: "producer", To: "consumer", Mbps: mbps}},
		SampleGoodput: true,
	}}
}

// stormRig is the fault-storm testbed, shared by chaos and longevity: a
// camera pipeline and then an unpinned 8 Mbps pair (Run.Streams[0]) on a
// full mesh of 16-core nodes n1..n<nodes> joined by 25 Mbps, 3 ms links,
// BFS placement with migration, 30 s probe sweeps (crash detection after 3
// failed sweeps), a 5 s migration downtime and the decision journal
// attached. Those jobs set the faults and reconciliation.
func stormRig(nodes int, seed int64, horizon time.Duration) scenario.Spec {
	spec := scenario.Spec{
		Topology:             "custom",
		Apps:                 []scenario.App{{Camera: &scenario.Camera{}}, pair("pair", 8, "", "", 2)},
		Scheduler:            "bfs",
		Migration:            true,
		MonitorIntervalSec:   30,
		MigrationDowntimeSec: 5,
		Journal:              true,
		HorizonSec:           secs(horizon),
		Seed:                 seed,
	}
	for i := 1; i <= nodes; i++ {
		spec.Nodes = append(spec.Nodes, cluster.Node{Name: fmt.Sprintf("n%d", i), CPU: 16, MemoryMB: 16384})
		for j := i + 1; j <= nodes; j++ {
			spec.Links = append(spec.Links, scenario.Link{A: fmt.Sprintf("n%d", i), B: fmt.Sprintf("n%d", j), Mbps: 25})
		}
	}
	return spec
}

// stormChaos is the rig's fault storm: node crashes at crashesPerHour with a
// 2 min mean downtime, 6 link flaps (30 s) and 2 probe-loss windows (1 min)
// per hour.
func stormChaos(crashesPerHour float64) *scenario.Chaos {
	return &scenario.Chaos{NodeCrashesPerHour: crashesPerHour, MeanNodeDowntimeSec: 120, LinkFlapsPerHour: 6,
		MeanLinkDowntimeSec: 30, ProbeLossWindowsPerHour: 2, MeanProbeLossWindowSec: 60}
}

// runChaos executes the chaos scenario: a seeded Poisson storm of node
// crashes, link flaps, and probe-loss windows injected over a four-node
// stormRig. Failure detection and the reconciler are armed; the result
// reports MTTR, availability, and requests lost. Equal
// seeds yield identical results.
func runChaos(seed int64, horizon time.Duration) (chaosResult, error) {
	if horizon == 0 {
		horizon = 20 * time.Minute
	}
	r, err := complete(chaosSpec(seed, horizon))
	if err != nil {
		return chaosResult{}, err
	}

	goodput := r.Streams[0].Goodput()
	res := chaosResult{
		Horizon:         horizon,
		EventCounts:     r.Faults.Counts(),
		Report:          r.Sim.Orch.RecoveryReport(),
		MeanGoodput:     goodput.Mean(),
		FailedTransfers: r.Sim.Net.FailedTransfers(),
		Migrations:      len(r.Sim.Orch.Migrations()),
		JournalSummary:  obs.Summarize(r.Journal.Events()),
	}
	published, _, _, dropped := r.Camera.Counters()
	res.FramesPublished = published
	res.FramesLost = dropped
	pts := goodput.Points()
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

// chaosSpec is a four-node stormRig under its storm, 6 crashes an hour.
func chaosSpec(seed int64, horizon time.Duration) scenario.Spec {
	spec := stormRig(4, seed, horizon)
	spec.Chaos = stormChaos(6)
	return spec
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
		Title: fmt.Sprintf("Chaos: seeded fault storm over %s (crash detect K=3 × 30 s probes, reconciler)",
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
